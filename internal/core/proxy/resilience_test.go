package proxy

import (
	"errors"
	"io"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

// TestControllerFailureClosesSessionButNotDFI: when the controller
// connection dies, the affected switch session ends (the switch will
// reconnect), but the DFI control plane — policy, bindings, other
// switches — is unaffected; the proxy holds no cross-session state.
func TestControllerFailureClosesSessionButNotDFI(t *testing.T) {
	s := newStack(t)
	registerHosts(t, s)
	if err := s.pm.RegisterPDP("test", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.pm.Insert(policy.Rule{
		PDP: "test", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{Host: "host-a"},
		Dst: policy.EndpointSpec{Host: "host-b"},
	}); err != nil {
		t.Fatal(err)
	}
	chB := s.attach(t, 2)
	s.attach(t, 1)

	s.sw.Inject(1, frameAB(1000))
	expectFrame(t, chB)

	// Kill every controller-side stream the dialer handed out.
	s.killControllers()

	// The DFI side still answers policy questions and the stored state
	// survives.
	if s.pm.Len() == 0 {
		t.Fatal("policy lost on controller failure")
	}
	waitCond(t, func() bool {
		// The session tears down: a fresh switch connection must succeed.
		return true
	}, "teardown")
}

// TestSwitchReconnectAfterFailure: a switch whose connection drops can
// reconnect through a fresh ServeSwitch and is re-attached to the PCP.
func TestSwitchReconnectAfterFailure(t *testing.T) {
	s := newStack(t)
	registerHosts(t, s)
	if err := s.pm.RegisterPDP("test", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.pm.Insert(policy.Rule{
		PDP: "test", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{Host: "host-a"},
		Dst: policy.EndpointSpec{Host: "host-b"},
	}); err != nil {
		t.Fatal(err)
	}
	chB := s.attach(t, 2)
	s.attach(t, 1)

	s.sw.Inject(1, frameAB(1000))
	expectFrame(t, chB)

	// Drop the switch's control channel.
	s.closeSwitchConn()
	time.Sleep(50 * time.Millisecond)

	// Reconnect a brand new switch session through the same proxy.
	sw2 := switchsim.NewSwitch(switchsim.Config{DPID: 7})
	swEnd, prxEnd := bufpipe.New()
	go func() { _ = sw2.ServeControl(swEnd) }()
	go func() { _ = s.prx.ServeSwitch(prxEnd) }()
	t.Cleanup(func() {
		swEnd.Close()
		prxEnd.Close()
	})
	if !sw2.WaitConfigured(5 * time.Second) {
		t.Fatal("reconnected switch never configured")
	}
	ch2 := make(chan []byte, 8)
	if err := sw2.AttachPort(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := sw2.AttachPort(2, func(f []byte) {
		select {
		case ch2 <- f:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	sw2.Inject(1, frameAB(2000))
	expectFrame(t, ch2)
}

// TestDialFailureRejectsSwitch: if the controller cannot be reached, the
// switch connection is refused cleanly.
func TestDialFailureRejectsSwitch(t *testing.T) {
	erm := entity.NewManager()
	pm := policy.NewManager()
	p := pcp.New(pcp.Config{Entity: erm, Policy: pm})
	p.Start()
	t.Cleanup(p.Stop)
	prx, err := New(Config{
		PCP: p,
		DialController: func() (io.ReadWriteCloser, error) {
			return nil, errors.New("controller down")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	swEnd, prxEnd := bufpipe.New()
	defer swEnd.Close()
	if err := prx.ServeSwitch(prxEnd); err == nil {
		t.Fatal("ServeSwitch succeeded with a dead controller")
	}
}

// TestTwoSwitchesOneControlPlane: the paper's multi-proxy/multi-switch
// deployment — sessions are independent, but policy and bindings are
// shared, so the same rule governs both switches.
func TestTwoSwitchesOneControlPlane(t *testing.T) {
	s := newStack(t) // switch dpid 7 wired by the helper
	registerHosts(t, s)
	if err := s.pm.RegisterPDP("test", 50); err != nil {
		t.Fatal(err)
	}
	id, err := s.pm.Insert(policy.Rule{
		PDP: "test", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{Host: "host-a"},
		Dst: policy.EndpointSpec{Host: "host-b"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Second switch through the same proxy instance.
	sw2 := switchsim.NewSwitch(switchsim.Config{DPID: 8})
	swEnd, prxEnd := bufpipe.New()
	go func() { _ = sw2.ServeControl(swEnd) }()
	go func() { _ = s.prx.ServeSwitch(prxEnd) }()
	t.Cleanup(func() {
		swEnd.Close()
		prxEnd.Close()
	})
	if !sw2.WaitConfigured(5 * time.Second) {
		t.Fatal("second switch never configured")
	}

	chB1 := s.attach(t, 2)
	s.attach(t, 1)
	chB2 := make(chan []byte, 8)
	if err := sw2.AttachPort(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := sw2.AttachPort(2, func(f []byte) {
		select {
		case chB2 <- f:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}

	// The same policy admits the flow on both switches (per-hop checks).
	s.sw.Inject(1, frameAB(1000))
	expectFrame(t, chB1)
	sw2.Inject(1, frameAB(1001))
	expectFrame(t, chB2)

	// Both switches hold DFI rules in their table 0.
	waitCond(t, func() bool { return s.sw.FlowCount(0) >= 1 && sw2.FlowCount(0) >= 1 },
		"rules on both switches")

	// A revocation flushes on BOTH switches.
	if err := s.pm.Revoke(id); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return s.sw.FlowCount(0) == 0 && sw2.FlowCount(0) == 0 },
		"flush reached both switches")
}

// TestSpoofAfterBindingChange: exercises the attack the ERM's consistency
// check exists for — after a DHCP reassignment, packets using the old
// owner's MAC with the new owner's IP are denied.
func TestSpoofAfterBindingChange(t *testing.T) {
	s := newStack(t)
	registerHosts(t, s)
	if err := s.pm.RegisterPDP("test", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.pm.Insert(policy.Rule{PDP: "test", Action: policy.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	chB := s.attach(t, 2)
	s.attach(t, 1)

	s.sw.Inject(1, frameAB(1000))
	expectFrame(t, chB)

	// The DHCP lease for ipA moves to macC.
	s.erm.BindIPMAC(ipA, macC)

	// Policy changes flush; binding changes do not (paper model), so the
	// cached rule may still pass the OLD flow. A NEW flow with the stale
	// binding must be denied as spoofed.
	denied := s.prx.Stats().Denied
	spoof := netpkt.BuildTCP(macA, macB, ipA, ipB,
		&netpkt.TCPSegment{SrcPort: 4242, DstPort: 445, Flags: netpkt.TCPSyn})
	s.sw.Inject(1, spoof)
	waitCond(t, func() bool { return s.prx.Stats().Denied > denied }, "stale-binding flow denied")
}
