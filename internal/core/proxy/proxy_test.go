package proxy

import (
	"io"
	"sync"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

var (
	macA = netpkt.MustParseMAC("02:00:00:00:00:0a")
	macB = netpkt.MustParseMAC("02:00:00:00:00:0b")
	macC = netpkt.MustParseMAC("02:00:00:00:00:0c")
	ipA  = netpkt.MustParseIPv4("10.0.0.10")
	ipB  = netpkt.MustParseIPv4("10.0.0.11")
	ipC  = netpkt.MustParseIPv4("10.0.0.12")
)

// stack is a fully wired single-switch DFI deployment.
type stack struct {
	pm   *policy.Manager
	erm  *entity.Manager
	pcp  *pcp.PCP
	ctl  *controller.Controller
	prx  *Proxy
	sw   *switchsim.Switch
	rx   map[uint32]chan []byte
	rxMu sync.Mutex

	connMu     sync.Mutex
	ctlStreams []*bufpipe.Conn
	swEnd      *bufpipe.Conn
	prxEnd     *bufpipe.Conn
}

// killControllers closes every controller-side stream handed to the proxy.
func (s *stack) killControllers() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for _, c := range s.ctlStreams {
		c.Close()
	}
}

// closeSwitchConn drops the switch's control channel.
func (s *stack) closeSwitchConn() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.swEnd.Close()
	s.prxEnd.Close()
}

func newStack(t *testing.T) *stack {
	t.Helper()
	s := &stack{
		pm:  policy.NewManager(),
		erm: entity.NewManager(),
		ctl: controller.New(controller.Config{}),
		rx:  make(map[uint32]chan []byte),
	}
	s.pcp = pcp.New(pcp.Config{Entity: s.erm, Policy: s.pm, Workers: 2})
	s.pcp.Start()
	t.Cleanup(s.pcp.Stop)

	var err error
	s.prx, err = New(Config{
		PCP: s.pcp,
		DialController: func() (io.ReadWriteCloser, error) {
			a, b := bufpipe.New()
			s.connMu.Lock()
			s.ctlStreams = append(s.ctlStreams, a, b)
			s.connMu.Unlock()
			go func() { _ = s.ctl.Serve(b) }()
			return a, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	s.sw = switchsim.NewSwitch(switchsim.Config{DPID: 7})
	swEnd, prxEnd := bufpipe.New()
	s.swEnd, s.prxEnd = swEnd, prxEnd
	go func() { _ = s.sw.ServeControl(swEnd) }()
	go func() { _ = s.prx.ServeSwitch(prxEnd) }()
	t.Cleanup(func() {
		swEnd.Close()
		prxEnd.Close()
	})
	if !s.sw.WaitConfigured(5 * time.Second) {
		t.Fatal("switch never configured through the proxy")
	}
	return s
}

func (s *stack) attach(t *testing.T, port uint32) chan []byte {
	t.Helper()
	ch := make(chan []byte, 64)
	s.rxMu.Lock()
	s.rx[port] = ch
	s.rxMu.Unlock()
	if err := s.sw.AttachPort(port, func(f []byte) {
		select {
		case ch <- f:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	return ch
}

func expectFrame(t *testing.T, ch chan []byte) []byte {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(3 * time.Second):
		t.Fatal("timeout waiting for frame")
		return nil
	}
}

func expectSilence(t *testing.T, ch chan []byte, within time.Duration) {
	t.Helper()
	select {
	case <-ch:
		t.Fatal("unexpected frame delivered")
	case <-time.After(within):
	}
}

func frameAB(sport uint16) []byte {
	return netpkt.BuildTCP(macA, macB, ipA, ipB, &netpkt.TCPSegment{SrcPort: sport, DstPort: 445, Flags: netpkt.TCPSyn})
}

func registerHosts(t *testing.T, s *stack) {
	t.Helper()
	s.erm.BindIPMAC(ipA, macA)
	s.erm.BindIPMAC(ipB, macB)
	s.erm.BindHostIP("host-a", ipA)
	s.erm.BindHostIP("host-b", ipB)
}

func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func TestDefaultDenyBlocksAndHidesFromController(t *testing.T) {
	s := newStack(t)
	s.attach(t, 1)
	chB := s.attach(t, 2)

	s.sw.Inject(1, frameAB(1000))
	expectSilence(t, chB, 100*time.Millisecond)

	waitCond(t, func() bool { return s.prx.Stats().Denied == 1 }, "deny recorded")
	if got := s.ctl.Stats().PacketIns; got != 0 {
		t.Fatalf("controller saw %d packet-ins for a denied flow, want 0", got)
	}
	// The deny was cached in table 0 with the default-deny cookie.
	waitCond(t, func() bool { return s.sw.FlowCount(0) == 1 }, "deny rule installed")

	// A second packet of the same flow is dropped in the data plane
	// without another packet-in.
	before := s.prx.Stats().PacketIns
	s.sw.Inject(1, frameAB(1000))
	expectSilence(t, chB, 100*time.Millisecond)
	if got := s.prx.Stats().PacketIns; got != before {
		t.Fatalf("cached deny still caused packet-in (%d→%d)", before, got)
	}
}

func TestAllowedFlowEndToEnd(t *testing.T) {
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
	if _, err := s.pm.Insert(policy.Rule{
		PDP: "test", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{Host: "host-b"},
		Dst: policy.EndpointSpec{Host: "host-a"},
	}); err != nil {
		t.Fatal(err)
	}

	chA := s.attach(t, 1)
	chB := s.attach(t, 2)

	// A→B: allowed by DFI, flooded by the learning controller.
	s.sw.Inject(1, frameAB(1000))
	expectFrame(t, chB)

	// DFI's allow rule is in table 0 and continues to table 1.
	waitCond(t, func() bool { return s.sw.FlowCount(0) >= 1 }, "DFI rule in table 0")
	// The controller saw the packet-in after DFI allowed it.
	waitCond(t, func() bool { return s.ctl.Stats().PacketIns >= 1 }, "controller packet-in")

	// B→A reply: DFI allows, controller has learned A and installs its
	// forwarding rule — which must land in table 1, not table 0.
	reply := netpkt.BuildTCP(macB, macA, ipB, ipA, &netpkt.TCPSegment{SrcPort: 445, DstPort: 1000, Flags: netpkt.TCPSyn | netpkt.TCPAck})
	s.sw.Inject(2, reply)
	expectFrame(t, chA)
	waitCond(t, func() bool { return s.sw.FlowCount(1) >= 1 }, "controller rule in table 1")
}

func TestRevocationFlushesCachedRules(t *testing.T) {
	s := newStack(t)
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
	chB := s.attach(t, 2)
	s.attach(t, 1)

	s.sw.Inject(1, frameAB(1000))
	expectFrame(t, chB)
	waitCond(t, func() bool { return s.sw.FlowCount(0) >= 1 }, "allow rule cached")

	// Revoke: the PCP must flush the cookie-tagged rule from table 0.
	if err := s.pm.Revoke(id); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return s.sw.FlowCount(0) == 0 }, "allow rule flushed")

	// The same flow is now re-evaluated and denied.
	s.sw.Inject(1, frameAB(1000))
	expectSilence(t, chB, 100*time.Millisecond)
	waitCond(t, func() bool { return s.prx.Stats().Denied >= 1 }, "re-evaluated deny")
}

func TestNewAllowFlushesCachedDefaultDeny(t *testing.T) {
	s := newStack(t)
	registerHosts(t, s)
	if err := s.pm.RegisterPDP("test", 50); err != nil {
		t.Fatal(err)
	}
	chB := s.attach(t, 2)
	s.attach(t, 1)

	// First: denied and cached.
	s.sw.Inject(1, frameAB(1000))
	expectSilence(t, chB, 100*time.Millisecond)
	waitCond(t, func() bool { return s.sw.FlowCount(0) == 1 }, "default-deny cached")

	// Insert an Allow covering the flow: the cached default-deny rules
	// must be flushed so the flow can be re-admitted immediately.
	if _, err := s.pm.Insert(policy.Rule{
		PDP: "test", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{Host: "host-a"},
		Dst: policy.EndpointSpec{Host: "host-b"},
	}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return s.sw.FlowCount(0) == 0 }, "default-deny flushed")

	s.sw.Inject(1, frameAB(1000))
	expectFrame(t, chB)
}

func TestSpoofedSourceDenied(t *testing.T) {
	s := newStack(t)
	registerHosts(t, s)
	if err := s.pm.RegisterPDP("test", 50); err != nil {
		t.Fatal(err)
	}
	// Policy would allow host-a → host-b...
	if _, err := s.pm.Insert(policy.Rule{
		PDP: "test", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{Host: "host-a"},
		Dst: policy.EndpointSpec{Host: "host-b"},
	}); err != nil {
		t.Fatal(err)
	}
	chB := s.attach(t, 2)
	s.attach(t, 3)

	// ...but macC claims ipA: the identifiers are inconsistent with the
	// DHCP binding, so the packet must be denied, not enriched to host-a.
	spoofed := netpkt.BuildTCP(macC, macB, ipA, ipB, &netpkt.TCPSegment{SrcPort: 6666, DstPort: 445, Flags: netpkt.TCPSyn})
	s.sw.Inject(3, spoofed)
	expectSilence(t, chB, 100*time.Millisecond)
	waitCond(t, func() bool { return s.prx.Stats().Denied == 1 }, "spoof denied")
	if got := s.ctl.Stats().PacketIns; got != 0 {
		t.Fatalf("controller saw %d packet-ins for spoofed flow", got)
	}
	_ = ipC
}

func TestControllerFlowModsShiftedOutOfTableZero(t *testing.T) {
	s := newStack(t)
	registerHosts(t, s)
	if err := s.pm.RegisterPDP("test", 50); err != nil {
		t.Fatal(err)
	}
	// Allow everything so the controller processes traffic.
	if _, err := s.pm.Insert(policy.Rule{PDP: "test", Action: policy.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	chA := s.attach(t, 1)
	s.attach(t, 2)

	s.sw.Inject(1, frameAB(1000))
	reply := netpkt.BuildTCP(macB, macA, ipB, ipA, &netpkt.TCPSegment{SrcPort: 445, DstPort: 1000})
	s.sw.Inject(2, reply)
	expectFrame(t, chA)
	waitCond(t, func() bool { return s.ctl.Stats().FlowMods >= 1 }, "controller installed a rule")

	// Every table-0 entry must be DFI's (goto-table or drop); the
	// controller's output rules live in table 1+.
	waitCond(t, func() bool { return s.sw.FlowCount(1) >= 1 }, "controller rule shifted to table 1")
}

func TestParallelFlowsManyClients(t *testing.T) {
	s := newStack(t)
	if err := s.pm.RegisterPDP("test", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.pm.Insert(policy.Rule{PDP: "test", Action: policy.ActionAllow}); err != nil {
		t.Fatal(err)
	}
	for port := uint32(1); port <= 8; port++ {
		s.attach(t, port)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				src := netpkt.MAC{0x02, 0, 0, 0, byte(i), byte(j)}
				frame := netpkt.BuildTCP(src, macB, netpkt.IPv4{10, 1, byte(i), byte(j)}, ipB,
					&netpkt.TCPSegment{SrcPort: uint16(1000 + j), DstPort: 80, Flags: netpkt.TCPSyn})
				s.sw.Inject(uint32(i%8)+1, frame)
			}
		}(i)
	}
	wg.Wait()
	waitCond(t, func() bool {
		return s.pcp.Metrics().Processed()+s.pcp.Metrics().Dropped() >= 160
	}, "all flows processed or accounted dropped")
}

// TestTableStatsHideDFITable: table statistics crossing the proxy must not
// reveal table 0's existence to the controller.
func TestTableStatsHideDFITable(t *testing.T) {
	// Raw session-level test: feed a switch-side table-stats reply through
	// the rewrite logic via a stubbed session.
	sess, ctlConn := newRewriteHarness(t)
	reply := &openflow.MultipartReply{
		PartType: openflow.MultipartTable,
		Tables: []*openflow.TableStatsEntry{
			{TableID: 0, ActiveCount: 7},
			{TableID: 1, ActiveCount: 3},
			{TableID: 2, ActiveCount: 1},
		},
	}
	if err := sess.handleFromSwitch(5, reply); err != nil {
		t.Fatal(err)
	}
	_, msg, err := ctlConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*openflow.MultipartReply)
	if !ok || got.PartType != openflow.MultipartTable {
		t.Fatalf("got %#v", msg)
	}
	if len(got.Tables) != 2 {
		t.Fatalf("tables = %d, want 2 (table 0 hidden)", len(got.Tables))
	}
	if got.Tables[0].TableID != 0 || got.Tables[0].ActiveCount != 3 {
		t.Fatalf("first visible table = %+v, want renumbered table 1", got.Tables[0])
	}
}

// TestAggregateRequestShifted: the controller's aggregate request for its
// table 0 must land on the switch's table 1.
func TestAggregateRequestShifted(t *testing.T) {
	sess, _, swConn := newRewriteHarnessBoth(t)
	req := &openflow.MultipartRequest{
		PartType: openflow.MultipartAggregate,
		Flow:     &openflow.FlowStatsRequest{TableID: 0, Match: &openflow.Match{}},
	}
	if err := sess.handleMultipartRequest(6, req); err != nil {
		t.Fatal(err)
	}
	_, msg, err := swConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*openflow.MultipartRequest)
	if !ok || got.Flow == nil {
		t.Fatalf("got %#v", msg)
	}
	if got.Flow.TableID != 1 {
		t.Fatalf("table id = %d, want shifted to 1", got.Flow.TableID)
	}
}

// newRewriteHarness builds a session whose controller side is readable.
func newRewriteHarness(t *testing.T) (*session, *openflow.Conn) {
	t.Helper()
	sess, ctl, _ := newRewriteHarnessBoth(t)
	return sess, ctl
}

// newRewriteHarnessBoth builds a bare session with readable ends on both
// sides, for unit-testing the rewrite logic without a full stack.
func newRewriteHarnessBoth(t *testing.T) (*session, *openflow.Conn, *openflow.Conn) {
	t.Helper()
	erm := entity.NewManager()
	pm := policy.NewManager()
	p := pcp.New(pcp.Config{Entity: erm, Policy: pm})
	prx, err := New(Config{PCP: p, DialController: func() (io.ReadWriteCloser, error) {
		a, _ := bufpipe.New()
		return a, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	swNear, swFar := bufpipe.New()
	ctlNear, ctlFar := bufpipe.New()
	t.Cleanup(func() {
		swNear.Close()
		ctlNear.Close()
	})
	sess := &session{
		proxy: prx,
		sw:    openflow.NewConn(swNear),
		ctl:   openflow.NewConn(ctlNear),
	}
	return sess, openflow.NewConn(ctlFar), openflow.NewConn(swFar)
}

// relayFrom encodes m as a frame, runs it through the given frame
// handler and flushes the peer connection, as the relay loop does.
func relayFrom(t *testing.T, handle func(*openflow.Frame) error, peer *openflow.Conn, xid uint32, m openflow.Message) {
	t.Helper()
	var f openflow.Frame
	if err := f.AppendMessageTo(xid, m); err != nil {
		t.Fatal(err)
	}
	if err := handle(&f); err != nil {
		t.Fatal(err)
	}
	if err := peer.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteRulesUnit drives every rewrite rule through the relay's frame
// handlers, the path the relay loops run, and checks the fields that
// reach the other side.
func TestRewriteRulesUnit(t *testing.T) {
	sess, ctlConn, swConn := newRewriteHarnessBoth(t)
	fromSwitch := func(xid uint32, m openflow.Message) {
		t.Helper()
		relayFrom(t, sess.handleFrameFromSwitch, sess.ctl, xid, m)
	}
	fromController := func(xid uint32, m openflow.Message) {
		t.Helper()
		relayFrom(t, sess.handleFrameFromController, sess.sw, xid, m)
	}

	// Features reply: controller sees one table fewer; DPID learned.
	fromSwitch(1, &openflow.FeaturesReply{DatapathID: 0x33, NumTables: 4})
	if _, msg, err := ctlConn.Recv(); err != nil {
		t.Fatal(err)
	} else if fr := msg.(*openflow.FeaturesReply); fr.NumTables != 3 || fr.DatapathID != 0x33 {
		t.Fatalf("features reply = %+v, want 3 tables", fr)
	}
	if dpid, ok := sess.dpid.Load().(uint64); !ok || dpid != 0x33 {
		t.Fatal("dpid not learned")
	}

	// Flow-removed from table 0 is consumed; table 2 is shifted to 1.
	fromSwitch(2, &openflow.FlowRemoved{Cookie: 5, TableID: 0, Match: &openflow.Match{}})
	fromSwitch(3, &openflow.FlowRemoved{Cookie: 6, TableID: 2, Match: &openflow.Match{InPort: openflow.U32(4)}})
	if xid, msg, err := ctlConn.Recv(); err != nil {
		t.Fatal(err)
	} else if fr := msg.(*openflow.FlowRemoved); xid != 3 || fr.TableID != 1 || fr.Cookie != 6 ||
		fr.Match.InPort == nil || *fr.Match.InPort != 4 {
		t.Fatalf("flow-removed xid %d = %+v, want the table-2 one shifted to 1 (and the table-0 one consumed)", xid, fr)
	}

	// Controller flow-mod: table and goto-table references shift up;
	// everything else arrives as sent.
	fm := &openflow.FlowMod{
		Cookie: 0xc0de, TableID: 0, Command: openflow.FlowModAdd, Priority: 300,
		BufferID: openflow.NoBuffer,
		Match:    &openflow.Match{EthType: openflow.U16(0x0800)},
		Instructions: []openflow.Instruction{
			&openflow.InstructionGotoTable{TableID: 1},
		},
	}
	fromController(4, fm)
	if xid, msg, err := swConn.Recv(); err != nil {
		t.Fatal(err)
	} else {
		got := msg.(*openflow.FlowMod)
		if xid != 4 || got.TableID != 1 || got.Cookie != 0xc0de || got.Priority != 300 || !got.Match.Equal(fm.Match) {
			t.Fatalf("flow-mod xid %d = %+v, want table 1 and the rest unchanged", xid, got)
		}
		gt := got.Instructions[0].(*openflow.InstructionGotoTable)
		if gt.TableID != 2 {
			t.Fatalf("goto table = %d, want 2", gt.TableID)
		}
	}

	// Table-mod shifts; ALL stays ALL.
	fromController(5, &openflow.TableMod{TableID: 1, Config: 3})
	if _, msg, err := swConn.Recv(); err != nil {
		t.Fatal(err)
	} else if tm := msg.(*openflow.TableMod); tm.TableID != 2 || tm.Config != 3 {
		t.Fatalf("table-mod = %+v, want table 2", tm)
	}
	fromController(6, &openflow.TableMod{TableID: openflow.AllTables})
	if _, msg, err := swConn.Recv(); err != nil {
		t.Fatal(err)
	} else if tm := msg.(*openflow.TableMod); tm.TableID != openflow.AllTables {
		t.Fatalf("table-mod ALL rewritten to %d", tm.TableID)
	}

	// Echo and other unmodeled messages pass through untouched, both ways.
	fromSwitch(7, &openflow.EchoRequest{Data: []byte("x")})
	if _, msg, err := ctlConn.Recv(); err != nil {
		t.Fatal(err)
	} else if e, ok := msg.(*openflow.EchoRequest); !ok || string(e.Data) != "x" {
		t.Fatalf("echo became %#v", msg)
	}
	fromController(8, &openflow.EchoReply{Data: []byte("y")})
	if _, msg, err := swConn.Recv(); err != nil {
		t.Fatal(err)
	} else if e, ok := msg.(*openflow.EchoReply); !ok || string(e.Data) != "y" {
		t.Fatalf("echo reply became %#v", msg)
	}

	// Flow-stats reply: table-0 rows hidden, others shifted, goto
	// instructions shifted down.
	fromSwitch(9, &openflow.MultipartReply{
		PartType: openflow.MultipartFlow,
		Flows: []*openflow.FlowStatsEntry{
			{TableID: 0, Match: &openflow.Match{}},
			{TableID: 1, Match: &openflow.Match{},
				Instructions: []openflow.Instruction{&openflow.InstructionGotoTable{TableID: 2}}},
		},
	})
	if _, msg, err := ctlConn.Recv(); err != nil {
		t.Fatal(err)
	} else {
		got := msg.(*openflow.MultipartReply)
		if len(got.Flows) != 1 || got.Flows[0].TableID != 0 {
			t.Fatalf("flow stats = %+v", got.Flows)
		}
		gt := got.Flows[0].Instructions[0].(*openflow.InstructionGotoTable)
		if gt.TableID != 1 {
			t.Fatalf("stats goto = %d, want 1", gt.TableID)
		}
	}
}

func TestPacketInBeforeFeaturesDropped(t *testing.T) {
	sess, _, _ := newRewriteHarnessBoth(t)
	pi := &openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		Match:    &openflow.Match{InPort: openflow.U32(1)},
		Data:     frameAB(1),
	}
	if err := sess.handleFromSwitch(1, pi); err != nil {
		t.Fatal(err)
	}
	if sess.proxy.Stats().DroppedOverload != 1 {
		t.Fatalf("stats = %+v, want 1 drop", sess.proxy.Stats())
	}
}
