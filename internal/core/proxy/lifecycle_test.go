package proxy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

// TestMalformedFrameFailsConnection: a garbage header from the switch
// must tear the session down with a real (non-orderly) error and count it
// on the switch side of dfi_proxy_relay_errors_total.
func TestMalformedFrameFailsConnection(t *testing.T) {
	p := pcp.New(pcp.Config{Entity: entity.NewManager(), Policy: policy.NewManager()})
	prx, err := New(Config{
		PCP: p,
		DialController: func() (io.ReadWriteCloser, error) {
			a, _ := bufpipe.New()
			return a, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	swNear, swFar := bufpipe.New()
	done := make(chan error, 1)
	if err := prx.HandleSwitch(swNear, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if _, err := swFar.Write([]byte{0x99, 0, 0, 8, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if orderlyClose(err) {
			t.Fatalf("malformed frame reported as orderly close (%v)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session never failed on malformed frame")
	}
	if got := prx.relayErrSwitch.Value(); got != 1 {
		t.Fatalf("dfi_proxy_relay_errors_total{side=switch} = %d, want 1", got)
	}
	if prx.conns.Value() != 0 {
		t.Fatalf("dfi_proxy_connections = %d after teardown, want 0", prx.conns.Value())
	}
}

// TestMalformedControllerFlowModFailsConnection: a controller flow-mod
// whose body the in-place rewriter rejects (here, a match of type 0) is
// not forwarded; it ends the session with a real error counted on the
// controller side of dfi_proxy_relay_errors_total.
func TestMalformedControllerFlowModFailsConnection(t *testing.T) {
	p := pcp.New(pcp.Config{Entity: entity.NewManager(), Policy: policy.NewManager()})
	ctlNear, ctlFar := bufpipe.New()
	prx, err := New(Config{
		PCP: p,
		DialController: func() (io.ReadWriteCloser, error) {
			return ctlNear, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	swNear, swFar := bufpipe.New()
	defer swFar.Close()
	done := make(chan error, 1)
	if err := prx.HandleSwitch(swNear, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	const bodyLen = 48 // fixed flow-mod fields, then a zeroed (type 0) match
	frame := make([]byte, 8+bodyLen)
	frame[0] = openflow.Version
	frame[1] = uint8(openflow.TypeFlowMod)
	binary.BigEndian.PutUint16(frame[2:4], uint16(len(frame)))
	binary.BigEndian.PutUint32(frame[4:8], 9)
	if _, err := ctlFar.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if orderlyClose(err) {
			t.Fatalf("malformed flow-mod reported as orderly close (%v)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session never failed on malformed controller flow-mod")
	}
	if got := prx.relayErrController.Value(); got != 1 {
		t.Fatalf("dfi_proxy_relay_errors_total{side=controller} = %d, want 1", got)
	}
	if got := prx.relayErrSwitch.Value(); got != 0 {
		t.Fatalf("dfi_proxy_relay_errors_total{side=switch} = %d, want 0", got)
	}
	if prx.conns.Value() != 0 {
		t.Fatalf("dfi_proxy_connections = %d after teardown, want 0", prx.conns.Value())
	}
}

// TestOrderlyCloseClassification pins the shutdown error classifier: EOF,
// closed pipes and net.ErrClosed (in both value and textual form) are
// orderly; anything else is a real failure.
func TestOrderlyCloseClassification(t *testing.T) {
	for _, err := range []error{
		nil,
		io.EOF,
		io.ErrClosedPipe,
		net.ErrClosed,
		fmt.Errorf("read tcp 127.0.0.1:1->127.0.0.1:2: %w", net.ErrClosed),
		errors.New("accept tcp [::]:6653: use of closed network connection"),
	} {
		if !orderlyClose(err) {
			t.Errorf("orderlyClose(%v) = false, want true", err)
		}
	}
	for _, err := range []error{
		errors.New("connection reset by peer"),
		io.ErrUnexpectedEOF,
		errors.New("openflow: bad message length 4"),
	} {
		if orderlyClose(err) {
			t.Errorf("orderlyClose(%v) = true, want false", err)
		}
	}
}

// TestChurnUnderPolicyMutations is the accept/close churn hammer: switch
// connections flap while policy mutations continuously flush rules to
// whatever switches are attached. Run under -race this is the relay's
// lifecycle soak; the structural assertions are that every session's done
// callback fires, the connection gauge returns to zero and the goroutine
// count returns to its pre-test baseline.
func TestChurnUnderPolicyMutations(t *testing.T) {
	pm := policy.NewManager()
	erm := entity.NewManager()
	p := pcp.New(pcp.Config{Entity: erm, Policy: pm, Workers: 2})
	p.Start()
	t.Cleanup(p.Stop)
	if err := pm.RegisterPDP("churn", 50); err != nil {
		t.Fatal(err)
	}

	var harness sync.WaitGroup // controller and switch goroutines
	ctl := controller.New(controller.Config{})
	prx, err := New(Config{
		PCP: p,
		DialController: func() (io.ReadWriteCloser, error) {
			a, b := bufpipe.New()
			harness.Add(1)
			go func() {
				defer harness.Done()
				_ = ctl.Serve(b)
			}()
			return a, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	rounds, flock := 8, 16
	if testing.Short() {
		rounds, flock = 3, 8
	}
	if raceEnabled {
		rounds = 4
	}

	baseline := runtime.NumGoroutine()

	// Policy mutation storm: insert/revoke continuously so cookie-scoped
	// flushes hit attached switches while their connections flap.
	stopMut := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for {
			select {
			case <-stopMut:
				return
			default:
			}
			id, err := pm.Insert(policy.Rule{PDP: "churn", Action: policy.ActionAllow})
			if err == nil {
				_ = pm.Revoke(id)
			}
		}
	}()

	sessions := make(chan error, rounds*flock)
	for r := 0; r < rounds; r++ {
		for i := 0; i < flock; i++ {
			dpid := uint64(r*flock + i + 1)
			swConn, prxConn := bufpipe.New()
			sw := switchsim.NewSwitch(switchsim.Config{DPID: dpid})
			harness.Add(2)
			go func() {
				defer harness.Done()
				_ = sw.ServeControl(swConn)
			}()
			if err := prx.HandleSwitch(prxConn, func(err error) { sessions <- err }); err != nil {
				t.Fatal(err)
			}
			go func() {
				defer harness.Done()
				// Let the handshake make progress, then flap.
				if !sw.WaitConfigured(2 * time.Second) {
					t.Log("switch", dpid, "never configured before flap")
				}
				swConn.Close()
			}()
		}
	}

	timeout := time.After(30 * time.Second)
	for served := 0; served < rounds*flock; served++ {
		select {
		case <-sessions:
		case <-timeout:
			t.Fatalf("only %d of %d sessions completed", served, rounds*flock)
		}
	}
	close(stopMut)
	mutWG.Wait()
	harness.Wait()

	if prx.conns.Value() != 0 {
		t.Fatalf("dfi_proxy_connections = %d after churn, want 0", prx.conns.Value())
	}
	// Every session goroutine has reported done; what may remain is the
	// instant between a goroutine's last statement and its exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after churn: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
