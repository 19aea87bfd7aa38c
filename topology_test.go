package dfi_test

import (
	"io"
	"testing"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

// TestMultiSwitchPerHopEnforcement wires two switches with an inter-switch
// link, both fronted by one DFI system, and verifies the paper's per-hop
// property: the correct policy is applied at EACH switch a flow traverses
// (§III-B), and a revocation flushes every hop.
func TestMultiSwitchPerHopEnforcement(t *testing.T) {
	ctl := controller.New(controller.Config{})
	sys, err := dfi.New(dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		a, b := bufpipe.New()
		go func() { _ = ctl.Serve(b) }()
		return a, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	swA := switchsim.NewSwitch(switchsim.Config{DPID: 1})
	swB := switchsim.NewSwitch(switchsim.Config{DPID: 2})
	for _, sw := range []*switchsim.Switch{swA, swB} {
		swEnd, dfiEnd := bufpipe.New()
		sw := sw
		go func() { _ = sw.ServeControl(swEnd) }()
		go func() { _ = sys.ServeSwitch(dfiEnd) }()
		t.Cleanup(func() {
			swEnd.Close()
			dfiEnd.Close()
		})
	}
	if !swA.WaitConfigured(5*time.Second) || !swB.WaitConfigured(5*time.Second) {
		t.Fatal("switches never configured")
	}

	// Inter-switch link on port 10 of each.
	if err := swA.AttachPort(10, func(f []byte) { go swB.Inject(10, f) }); err != nil {
		t.Fatal(err)
	}
	if err := swB.AttachPort(10, func(f []byte) { go swA.Inject(10, f) }); err != nil {
		t.Fatal(err)
	}

	macA := netpkt.MustParseMAC("02:00:00:00:00:01")
	macB := netpkt.MustParseMAC("02:00:00:00:00:02")
	ipA := netpkt.MustParseIPv4("10.0.0.1")
	ipB := netpkt.MustParseIPv4("10.0.0.2")
	sys.Entity().BindIPMAC(ipA, macA)
	sys.Entity().BindIPMAC(ipB, macB)
	sys.Entity().BindHostIP("host-a", ipA)
	sys.Entity().BindHostIP("host-b", ipB)

	gotB := make(chan []byte, 16)
	if err := swA.AttachPort(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := swB.AttachPort(1, func(f []byte) {
		select {
		case gotB <- f:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}

	if err := sys.Policy().RegisterPDP("t", 50); err != nil {
		t.Fatal(err)
	}
	ruleID, err := sys.Policy().Insert(dfi.Rule{
		PDP: "t", Action: dfi.ActionAllow,
		Src: dfi.EndpointSpec{Host: "host-a"},
		Dst: dfi.EndpointSpec{Host: "host-b"},
	})
	if err != nil {
		t.Fatal(err)
	}

	syn := netpkt.BuildTCP(macA, macB, ipA, ipB,
		&netpkt.TCPSegment{SrcPort: 1111, DstPort: 80, Flags: netpkt.TCPSyn})
	swA.Inject(1, syn)
	select {
	case <-gotB:
	case <-time.After(5 * time.Second):
		t.Fatal("flow never crossed the two-switch path")
	}

	// Per-hop enforcement: BOTH switches hold a DFI rule for the flow.
	waitFor(t, func() bool { return swA.FlowCount(0) >= 1 && swB.FlowCount(0) >= 1 },
		"DFI rules on both hops")

	// Revocation flushes both hops.
	if err := sys.Policy().Revoke(ruleID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return swA.FlowCount(0) == 0 && swB.FlowCount(0) == 0 },
		"flush on both hops")

	// The same flow is now denied at the FIRST hop; host B sees nothing.
	drainBytes(gotB)
	deniedBefore := sys.Proxy().Stats().Denied
	swA.Inject(1, syn)
	waitFor(t, func() bool { return sys.Proxy().Stats().Denied > deniedBefore }, "denied at hop 1")
	select {
	case <-gotB:
		t.Fatal("denied flow still delivered")
	case <-time.After(100 * time.Millisecond):
	}
	// And switch B never saw a packet-in for it (blocked upstream).
	if swB.FlowCount(0) != 0 {
		t.Fatal("denied flow reached the second hop")
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func drainBytes(ch chan []byte) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
