package dfi_test

import (
	"io"
	"net"
	"testing"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/core/pdp"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

func TestNewRequiresDialer(t *testing.T) {
	if _, err := dfi.New(); err == nil {
		t.Fatal("New without a controller dialer must fail")
	}
}

func TestSystemCloseIsClean(t *testing.T) {
	sys, err := dfi.New(dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		a, b := bufpipe.New()
		ctl := controller.New(controller.Config{})
		go func() { _ = ctl.Serve(b) }()
		return a, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close() // double close must not panic
}

// TestEndToEndOverTCP deploys the full stack the way cmd/dfid does: real
// TCP loopback sockets between the switch, the DFI proxy and the
// controller.
func TestEndToEndOverTCP(t *testing.T) {
	// Controller listener.
	ctlLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctlLis.Close()
	ctl := controller.New(controller.Config{})
	go func() {
		for {
			conn, err := ctlLis.Accept()
			if err != nil {
				return
			}
			go func() { _ = ctl.Serve(conn) }()
		}
	}()

	// DFI system dialing the controller over TCP.
	sys, err := dfi.New(dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", ctlLis.Addr().String())
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// DFI listener accepting switches.
	dfiLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dfiLis.Close()
	go func() {
		for {
			conn, err := dfiLis.Accept()
			if err != nil {
				return
			}
			go func() { _ = sys.ServeSwitch(conn) }()
		}
	}()

	// The switch dials DFI over TCP, as cmd/switchd does.
	sw := switchsim.NewSwitch(switchsim.Config{DPID: 0x42})
	swConn, err := net.Dial("tcp", dfiLis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer swConn.Close()
	go func() { _ = sw.ServeControl(swConn) }()
	if !sw.WaitConfigured(5 * time.Second) {
		t.Fatal("switch never configured over TCP")
	}

	// Wire endpoints and policy.
	macA := netpkt.MustParseMAC("02:00:00:00:00:01")
	macB := netpkt.MustParseMAC("02:00:00:00:00:02")
	ipA := netpkt.MustParseIPv4("10.0.0.1")
	ipB := netpkt.MustParseIPv4("10.0.0.2")
	sys.Entity().BindIPMAC(ipA, macA)
	sys.Entity().BindIPMAC(ipB, macB)
	sys.Entity().BindHostIP("a", ipA)
	sys.Entity().BindHostIP("b", ipB)
	if err := sys.Policy().RegisterPDP("t", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Policy().Insert(dfi.Rule{
		PDP: "t", Action: dfi.ActionAllow,
		Src: dfi.EndpointSpec{Host: "a"}, Dst: dfi.EndpointSpec{Host: "b"},
	}); err != nil {
		t.Fatal(err)
	}

	gotB := make(chan struct{}, 8)
	if err := sw.AttachPort(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachPort(2, func([]byte) {
		select {
		case gotB <- struct{}{}:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}

	allowed := netpkt.BuildTCP(macA, macB, ipA, ipB, &netpkt.TCPSegment{SrcPort: 1000, DstPort: 80, Flags: netpkt.TCPSyn})
	sw.Inject(1, allowed)
	select {
	case <-gotB:
	case <-time.After(5 * time.Second):
		t.Fatal("allowed flow not delivered over TCP deployment")
	}

	denied := netpkt.BuildTCP(macB, macA, ipB, ipA, &netpkt.TCPSegment{SrcPort: 2000, DstPort: 80, Flags: netpkt.TCPSyn})
	sw.Inject(2, denied) // b→a has no allow rule
	deadline := time.Now().Add(3 * time.Second)
	for sys.Proxy().Stats().Denied == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sys.Proxy().Stats().Denied == 0 {
		t.Fatal("reverse flow was not denied")
	}
}

func TestPaperLatencyProfileShapes(t *testing.T) {
	binding, policyQ, pcpProc, proxyFwd := dfi.PaperLatencyProfile(1)
	check := func(name string, m dfi.LatencyModel, wantMean time.Duration) {
		var sum time.Duration
		const n = 2000
		for i := 0; i < n; i++ {
			d := m.Sample()
			if d < 0 {
				t.Fatalf("%s: negative sample", name)
			}
			sum += d
		}
		mean := sum / n
		if mean < wantMean/2 || mean > wantMean*2 {
			t.Errorf("%s mean = %v, want ≈%v", name, mean, wantMean)
		}
	}
	check("binding", binding, 2410*time.Microsecond)
	check("policy", policyQ, 2520*time.Microsecond)
	check("pcp", pcpProc, 390*time.Microsecond)
	check("proxy", proxyFwd, 160*time.Microsecond)
}

func TestRosterTypeAliasUsable(t *testing.T) {
	// The facade's aliases must be usable as the internal types.
	r := dfi.Roster{
		EnclaveOf: map[string]string{"h1": "e1", "h2": "e1"},
		Servers:   []string{"h2"},
	}
	var _ pdp.Roster = r
	if peers := r.Peers("h1"); len(peers) != 1 || peers[0] != "h2" {
		t.Fatalf("Peers = %v", peers)
	}
}
