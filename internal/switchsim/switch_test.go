package switchsim

import (
	"sync"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/simclock"
)

var (
	mac1 = netpkt.MustParseMAC("02:00:00:00:00:01")
	mac2 = netpkt.MustParseMAC("02:00:00:00:00:02")
	ip1  = netpkt.MustParseIPv4("10.0.0.1")
	ip2  = netpkt.MustParseIPv4("10.0.0.2")
)

func tcpFrame(sport, dport uint16) []byte {
	return netpkt.BuildTCP(mac1, mac2, ip1, ip2, &netpkt.TCPSegment{SrcPort: sport, DstPort: dport, Flags: netpkt.TCPSyn})
}

// collector records frames delivered out a port.
type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) deliver(f []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, f)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func addFlow(t *testing.T, sw *Switch, tableID uint8, priority uint16, match *openflow.Match, instrs ...openflow.Instruction) {
	t.Helper()
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID:      tableID,
		Command:      openflow.FlowModAdd,
		Priority:     priority,
		BufferID:     openflow.NoBuffer,
		Match:        match,
		Instructions: instrs,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func outputTo(port uint32) openflow.Instruction {
	return &openflow.InstructionApplyActions{
		Actions: []openflow.Action{&openflow.ActionOutput{Port: port}},
	}
}

func TestForwardOnMatch(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, 0, 10, &openflow.Match{EthDst: openflow.MACPtr(mac2)}, outputTo(2))
	sw.Inject(1, tcpFrame(1000, 80))
	if out.count() != 1 {
		t.Fatalf("delivered %d frames, want 1", out.count())
	}
	if c := sw.Counters(); c.RxPackets != 1 || c.TxPackets != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestMissDropsWithoutController(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	sw.Inject(1, tcpFrame(1000, 80))
	if c := sw.Counters(); c.CtrlDrops != 1 {
		t.Fatalf("counters = %+v, want 1 ctrl drop", c)
	}
}

func TestPriorityHigherWins(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var lo, hi collector
	if err := sw.AttachPort(2, lo.deliver); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachPort(3, hi.deliver); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, 0, 1, &openflow.Match{}, outputTo(2))
	addFlow(t, sw, 0, 100, &openflow.Match{EthDst: openflow.MACPtr(mac2)}, outputTo(3))
	sw.Inject(1, tcpFrame(1000, 80))
	if hi.count() != 1 || lo.count() != 0 {
		t.Fatalf("hi=%d lo=%d, want 1/0", hi.count(), lo.count())
	}
	// A non-matching destination falls to the low-priority wildcard.
	other := netpkt.BuildTCP(mac2, mac1, ip2, ip1, &netpkt.TCPSegment{SrcPort: 1, DstPort: 2})
	sw.Inject(1, other)
	if lo.count() != 1 {
		t.Fatalf("lo=%d, want 1", lo.count())
	}
}

func TestGotoTablePipeline(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	// Table 0: everything continues to table 1 (DFI allow pattern).
	addFlow(t, sw, 0, 100, &openflow.Match{}, &openflow.InstructionGotoTable{TableID: 1})
	// Table 1: forward to port 2.
	addFlow(t, sw, 1, 10, &openflow.Match{EthDst: openflow.MACPtr(mac2)}, outputTo(2))
	sw.Inject(1, tcpFrame(1000, 80))
	if out.count() != 1 {
		t.Fatalf("delivered %d, want 1", out.count())
	}
}

func TestDenyEntryDropsAndCounts(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	// A matching entry with no instructions is a drop (DFI deny pattern).
	addFlow(t, sw, 0, 100, &openflow.Match{EthDst: openflow.MACPtr(mac2)})
	addFlow(t, sw, 0, 1, &openflow.Match{}, outputTo(2))
	sw.Inject(1, tcpFrame(1000, 80))
	if out.count() != 0 {
		t.Fatal("deny entry forwarded the packet")
	}
	if c := sw.Counters(); c.Drops != 1 {
		t.Fatalf("counters = %+v, want 1 drop", c)
	}
}

func TestFloodExcludesIngress(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var p1, p2, p3 collector
	for port, c := range map[uint32]*collector{1: &p1, 2: &p2, 3: &p3} {
		if err := sw.AttachPort(port, c.deliver); err != nil {
			t.Fatal(err)
		}
	}
	addFlow(t, sw, 0, 1, &openflow.Match{}, outputTo(openflow.PortFlood))
	sw.Inject(1, tcpFrame(1000, 80))
	if p1.count() != 0 || p2.count() != 1 || p3.count() != 1 {
		t.Fatalf("flood delivered %d/%d/%d, want 0/1/1", p1.count(), p2.count(), p3.count())
	}
}

func TestExactMatchIsolation(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	key, err := netpkt.ExtractFlowKey(tcpFrame(1000, 80))
	if err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, 0, 100, openflow.ExactMatchFor(key, 1), outputTo(2))
	sw.Inject(1, tcpFrame(1000, 80)) // exact flow: forwarded
	sw.Inject(1, tcpFrame(1001, 80)) // different source port: miss
	if out.count() != 1 {
		t.Fatalf("delivered %d, want 1", out.count())
	}
	if c := sw.Counters(); c.CtrlDrops != 1 {
		t.Fatalf("counters = %+v, want 1 missed packet", c)
	}
}

func TestAddReplacesIdenticalMatch(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var a, b collector
	if err := sw.AttachPort(2, a.deliver); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachPort(3, b.deliver); err != nil {
		t.Fatal(err)
	}
	m := &openflow.Match{EthDst: openflow.MACPtr(mac2)}
	addFlow(t, sw, 0, 10, m, outputTo(2))
	addFlow(t, sw, 0, 10, m, outputTo(3)) // replaces
	if sw.FlowCount(0) != 1 {
		t.Fatalf("FlowCount = %d, want 1", sw.FlowCount(0))
	}
	sw.Inject(1, tcpFrame(1000, 80))
	if a.count() != 0 || b.count() != 1 {
		t.Fatalf("a=%d b=%d, want 0/1", a.count(), b.count())
	}
}

func TestDeleteByCookie(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	for i := uint64(1); i <= 3; i++ {
		err := sw.WriteFlowMod(&openflow.FlowMod{
			TableID: 0, Command: openflow.FlowModAdd, Priority: uint16(i), Cookie: i,
			Match: &openflow.Match{TCPDst: openflow.U16(uint16(i)), EthType: openflow.U16(netpkt.EtherTypeIPv4), IPProto: openflow.U8(netpkt.ProtoTCP)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Cookie-scoped flush, as the PCP issues on policy change.
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModDelete,
		Cookie: 2, CookieMask: ^uint64(0),
		Match: &openflow.Match{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.FlowCount(0) != 2 {
		t.Fatalf("FlowCount = %d, want 2", sw.FlowCount(0))
	}
}

func TestDeleteNonStrictCovers(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	addFlow(t, sw, 0, 10, &openflow.Match{EthDst: openflow.MACPtr(mac2), EthType: openflow.U16(netpkt.EtherTypeIPv4)})
	addFlow(t, sw, 0, 11, &openflow.Match{EthDst: openflow.MACPtr(mac1)})
	// Delete everything matching eth_dst=mac2 (any other fields).
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModDelete,
		Match: &openflow.Match{EthDst: openflow.MACPtr(mac2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.FlowCount(0) != 1 {
		t.Fatalf("FlowCount = %d, want 1", sw.FlowCount(0))
	}
}

func TestDeleteStrict(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	m := &openflow.Match{EthDst: openflow.MACPtr(mac2)}
	addFlow(t, sw, 0, 10, m)
	addFlow(t, sw, 0, 20, m)
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModDeleteStrict, Priority: 10, Match: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.FlowCount(0) != 1 {
		t.Fatalf("FlowCount = %d, want 1 (only priority-10 deleted)", sw.FlowCount(0))
	}
}

func TestModifyUpdatesInstructionsKeepsCounters(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var a, b collector
	if err := sw.AttachPort(2, a.deliver); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachPort(3, b.deliver); err != nil {
		t.Fatal(err)
	}
	m := &openflow.Match{EthDst: openflow.MACPtr(mac2)}
	addFlow(t, sw, 0, 10, m, outputTo(2))
	sw.Inject(1, tcpFrame(1000, 80))
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModModify, Match: m,
		Instructions: []openflow.Instruction{outputTo(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.Inject(1, tcpFrame(1000, 80))
	if a.count() != 1 || b.count() != 1 {
		t.Fatalf("a=%d b=%d, want 1/1", a.count(), b.count())
	}
}

func TestTableCapacity(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1, TableCapacity: 2})
	addFlow(t, sw, 0, 1, &openflow.Match{TCPDst: openflow.U16(1)})
	addFlow(t, sw, 0, 2, &openflow.Match{TCPDst: openflow.U16(2)})
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 3,
		Match: &openflow.Match{TCPDst: openflow.U16(3)},
	})
	if err == nil {
		t.Fatal("want table-full error")
	}
}

func TestBadTableRejected(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1, NumTables: 2})
	err := sw.WriteFlowMod(&openflow.FlowMod{TableID: 5, Command: openflow.FlowModAdd, Match: &openflow.Match{}})
	if err == nil {
		t.Fatal("want bad-table error")
	}
}

func TestIdleTimeoutSweep(t *testing.T) {
	epoch := time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(epoch)
	sw := NewSwitch(Config{DPID: 1, Clock: clk})
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 1,
		IdleTimeout: 10, Match: &openflow.Match{},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.ScheduleAfter(5*time.Second, func() {
		if n := sw.SweepTimeouts(); n != 0 {
			t.Errorf("swept %d entries at t+5s, want 0", n)
		}
	})
	clk.ScheduleAfter(11*time.Second, func() {
		if n := sw.SweepTimeouts(); n != 1 {
			t.Errorf("swept %d entries at t+11s, want 1", n)
		}
	})
	clk.Run()
	if sw.FlowCount(0) != 0 {
		t.Fatalf("FlowCount = %d after idle expiry", sw.FlowCount(0))
	}
}

func TestIdleTimeoutRefreshedByTraffic(t *testing.T) {
	epoch := time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(epoch)
	sw := NewSwitch(Config{DPID: 1, Clock: clk})
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 1,
		IdleTimeout: 10, Match: &openflow.Match{},
		Instructions: []openflow.Instruction{outputTo(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.ScheduleAfter(8*time.Second, func() { sw.Inject(1, tcpFrame(1, 2)) })
	clk.ScheduleAfter(15*time.Second, func() {
		if n := sw.SweepTimeouts(); n != 0 {
			t.Errorf("entry expired despite traffic at t+8s")
		}
	})
	clk.ScheduleAfter(19*time.Second, func() {
		if n := sw.SweepTimeouts(); n != 1 {
			t.Errorf("swept %d at t+19s, want 1 (idle since t+8s)", n)
		}
	})
	clk.Run()
}

func TestHardTimeoutExpiresActiveFlow(t *testing.T) {
	epoch := time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(epoch)
	sw := NewSwitch(Config{DPID: 1, Clock: clk})
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 1,
		HardTimeout: 10, Match: &openflow.Match{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Traffic does not refresh a hard timeout.
	clk.ScheduleAfter(9*time.Second, func() { sw.Inject(1, tcpFrame(1, 2)) })
	clk.ScheduleAfter(11*time.Second, func() {
		if n := sw.SweepTimeouts(); n != 1 {
			t.Errorf("swept %d, want 1", n)
		}
	})
	clk.Run()
}

// recvNonStatus reads messages, skipping asynchronous PORT_STATUS
// announcements (emitted whenever ports attach/detach).
func recvNonStatus(t *testing.T, conn *openflow.Conn) (uint32, openflow.Message) {
	t.Helper()
	for {
		xid, msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, isStatus := msg.(*openflow.PortStatus); isStatus {
			continue
		}
		return xid, msg
	}
}

func TestControlChannelEndToEnd(t *testing.T) {
	sw := NewSwitch(Config{DPID: 0xab})
	swEnd, ctlEnd := bufpipe.New()
	serveDone := make(chan error, 1)
	go func() { serveDone <- sw.ServeControl(swEnd) }()

	conn := openflow.NewConn(ctlEnd)
	fr, err := conn.Handshake()
	if err != nil {
		t.Fatal(err)
	}
	if fr.DatapathID != 0xab || fr.NumTables != 4 {
		t.Fatalf("features = %+v", fr)
	}

	// Install a flow over the wire and verify a miss generates PACKET_IN.
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 10,
		BufferID: openflow.NoBuffer,
		Match:    &openflow.Match{EthDst: openflow.MACPtr(mac2)},
		Instructions: []openflow.Instruction{
			&openflow.InstructionApplyActions{Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Barrier to ensure the flow-mod was processed.
	if _, err := conn.Send(&openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, msg := recvNonStatus(t, conn); true {
		if _, ok := msg.(*openflow.BarrierReply); !ok {
			t.Fatalf("got %T, want BarrierReply", msg)
		}
	}

	sw.Inject(1, tcpFrame(1000, 80)) // matches: forwarded
	if out.count() != 1 {
		t.Fatalf("forwarded %d, want 1", out.count())
	}

	miss := netpkt.BuildTCP(mac2, mac1, ip2, ip1, &netpkt.TCPSegment{SrcPort: 1, DstPort: 2})
	sw.Inject(3, miss)
	_, msg := recvNonStatus(t, conn)
	pi, ok := msg.(*openflow.PacketIn)
	if !ok {
		t.Fatalf("got %T, want PacketIn", msg)
	}
	if pi.InPort() != 3 || pi.TableID != 0 || pi.Reason != openflow.PacketInReasonNoMatch {
		t.Fatalf("packet-in = %+v", pi)
	}

	// Flow stats over the wire.
	if _, err := conn.Send(&openflow.MultipartRequest{
		PartType: openflow.MultipartFlow,
		Flow:     &openflow.FlowStatsRequest{TableID: openflow.AllTables, Match: &openflow.Match{}},
	}); err != nil {
		t.Fatal(err)
	}
	_, msg = recvNonStatus(t, conn)
	rep, ok := msg.(*openflow.MultipartReply)
	if !ok || len(rep.Flows) != 1 {
		t.Fatalf("stats reply = %#v", msg)
	}
	if rep.Flows[0].PacketCount != 1 {
		t.Fatalf("packet count = %d, want 1", rep.Flows[0].PacketCount)
	}

	// Packet-out injection.
	if _, err := conn.Send(&openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortController,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 2}},
		Data:     tcpFrame(5, 6),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for out.count() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if out.count() != 2 {
		t.Fatalf("packet-out delivered %d, want 2", out.count())
	}

	// Echo keep-alive.
	if _, err := conn.Send(&openflow.EchoRequest{Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	if _, msg := recvNonStatus(t, conn); true {
		if rep, ok := msg.(*openflow.EchoReply); !ok || string(rep.Data) != "hi" {
			t.Fatalf("echo reply = %#v", msg)
		}
	}

	ctlEnd.Close()
	if err := <-serveDone; err != nil && err != errClosed {
		t.Fatalf("serve exited: %v", err)
	}
}

func TestFlowRemovedOnDelete(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	swEnd, ctlEnd := bufpipe.New()
	go func() { _ = sw.ServeControl(swEnd) }()
	defer ctlEnd.Close()

	conn := openflow.NewConn(ctlEnd)
	// Consume the switch HELLO.
	if _, msg, err := conn.Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(*openflow.Hello); !ok {
		t.Fatalf("got %T, want Hello", msg)
	}

	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 7, Cookie: 99,
		Flags: openflow.FlowFlagSendFlowRem,
		Match: &openflow.Match{EthDst: openflow.MACPtr(mac2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModDelete,
		Cookie: 99, CookieMask: ^uint64(0), Match: &openflow.Match{},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, msg := recvNonStatus(t, conn)
	fr, ok := msg.(*openflow.FlowRemoved)
	if !ok {
		t.Fatalf("got %T, want FlowRemoved", msg)
	}
	if fr.Cookie != 99 || fr.Reason != openflow.FlowRemovedDelete || fr.Priority != 7 {
		t.Fatalf("flow-removed = %+v", fr)
	}
}

func TestInvalidPortAttach(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	if err := sw.AttachPort(0, func([]byte) {}); err == nil {
		t.Fatal("port 0 accepted")
	}
	if err := sw.AttachPort(openflow.PortFlood, func([]byte) {}); err == nil {
		t.Fatal("reserved port accepted")
	}
	if err := sw.AttachPort(1, nil); err == nil {
		t.Fatal("nil deliver accepted")
	}
}

func TestGotoTableBackwardReferenceStops(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	// goto table 1, and table 1 tries to go back to 0: must stop, not loop.
	addFlow(t, sw, 0, 1, &openflow.Match{}, &openflow.InstructionGotoTable{TableID: 1})
	addFlow(t, sw, 1, 1, &openflow.Match{}, outputTo(2), &openflow.InstructionGotoTable{TableID: 0})
	done := make(chan struct{})
	go func() {
		sw.Inject(1, tcpFrame(1, 2))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline looped")
	}
	if out.count() != 1 {
		t.Fatalf("delivered %d, want 1", out.count())
	}
}

func TestTableStatsOverControlChannel(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1, NumTables: 2})
	swEnd, ctlEnd := bufpipe.New()
	go func() { _ = sw.ServeControl(swEnd) }()
	defer ctlEnd.Close()
	conn := openflow.NewConn(ctlEnd)
	if _, msg := recvNonStatus(t, conn); true {
		if _, ok := msg.(*openflow.Hello); !ok {
			t.Fatalf("got %T, want Hello", msg)
		}
	}
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, 0, 10, &openflow.Match{EthDst: openflow.MACPtr(mac2)}, outputTo(2))
	sw.Inject(1, tcpFrame(1, 2)) // match in table 0
	miss := netpkt.BuildTCP(mac2, mac1, ip2, ip1, &netpkt.TCPSegment{SrcPort: 3, DstPort: 4})
	sw.Inject(1, miss) // miss

	if _, err := conn.Send(&openflow.MultipartRequest{PartType: openflow.MultipartTable}); err != nil {
		t.Fatal(err)
	}
	_, msg := recvNonStatus(t, conn)
	// Skip the packet-in generated by the miss.
	for {
		if _, isPI := msg.(*openflow.PacketIn); !isPI {
			break
		}
		_, msg = recvNonStatus(t, conn)
	}
	rep, ok := msg.(*openflow.MultipartReply)
	if !ok || rep.PartType != openflow.MultipartTable {
		t.Fatalf("got %#v", msg)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(rep.Tables))
	}
	t0 := rep.Tables[0]
	if t0.TableID != 0 || t0.ActiveCount != 1 {
		t.Fatalf("table 0 stats = %+v", t0)
	}
	if t0.LookupCount != 2 || t0.MatchedCount != 1 {
		t.Fatalf("table 0 lookups/matches = %d/%d, want 2/1", t0.LookupCount, t0.MatchedCount)
	}
}

func TestAggregateStats(t *testing.T) {
	sw := NewSwitch(Config{DPID: 1})
	var out collector
	if err := sw.AttachPort(2, out.deliver); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, 0, 10, &openflow.Match{EthDst: openflow.MACPtr(mac2)}, outputTo(2))
	addFlow(t, sw, 0, 11, &openflow.Match{EthDst: openflow.MACPtr(mac1)}, outputTo(2))
	frame := tcpFrame(1, 2)
	sw.Inject(1, frame)
	sw.Inject(1, frame)

	swEnd, ctlEnd := bufpipe.New()
	go func() { _ = sw.ServeControl(swEnd) }()
	defer ctlEnd.Close()
	conn := openflow.NewConn(ctlEnd)
	if _, msg := recvNonStatus(t, conn); true {
		if _, ok := msg.(*openflow.Hello); !ok {
			t.Fatalf("got %T, want Hello", msg)
		}
	}
	if _, err := conn.Send(&openflow.MultipartRequest{
		PartType: openflow.MultipartAggregate,
		Flow:     &openflow.FlowStatsRequest{TableID: openflow.AllTables, Match: &openflow.Match{}},
	}); err != nil {
		t.Fatal(err)
	}
	_, msg := recvNonStatus(t, conn)
	rep, ok := msg.(*openflow.MultipartReply)
	if !ok || rep.Aggregate == nil {
		t.Fatalf("got %#v", msg)
	}
	if rep.Aggregate.FlowCount != 2 || rep.Aggregate.PacketCount != 2 {
		t.Fatalf("aggregate = %+v", rep.Aggregate)
	}
	if rep.Aggregate.ByteCount != uint64(2*len(frame)) {
		t.Fatalf("bytes = %d, want %d", rep.Aggregate.ByteCount, 2*len(frame))
	}
}

func TestCapacityEvictsExpiredBeforeRefusing(t *testing.T) {
	epoch := time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(epoch)
	sw := NewSwitch(Config{DPID: 1, TableCapacity: 2, Clock: clk})
	// Two short-lived entries fill the table.
	for i := uint16(1); i <= 2; i++ {
		err := sw.WriteFlowMod(&openflow.FlowMod{
			TableID: 0, Command: openflow.FlowModAdd, Priority: i, IdleTimeout: 5,
			Match: &openflow.Match{TCPDst: openflow.U16(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Still within their lifetime: a third entry is refused.
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 3,
		Match: &openflow.Match{TCPDst: openflow.U16(3)},
	})
	if err == nil {
		t.Fatal("overfull table accepted an entry")
	}
	// After they expire, the same add must succeed without an explicit
	// sweep: capacity pressure evicts dead entries.
	clk.ScheduleAfter(10*time.Second, func() {})
	clk.Run()
	err = sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 3,
		Match: &openflow.Match{TCPDst: openflow.U16(3)},
	})
	if err != nil {
		t.Fatalf("add after expiry: %v", err)
	}
}

// TestFullTableScansOnlyWhenADeadlineIsDue: adding to a full table whose
// earliest deadline lies in the future visits no entry, however often it
// is refused; once a deadline passes, one scan evicts the dead entries and
// the next refusals are free again until the new earliest deadline.
func TestFullTableScansOnlyWhenADeadlineIsDue(t *testing.T) {
	epoch := time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(epoch)
	const capacity = 64
	sw := NewSwitch(Config{DPID: 1, TableCapacity: capacity, Clock: clk})
	add := func(port uint16, idle uint16) error {
		return sw.WriteFlowMod(&openflow.FlowMod{
			TableID: 0, Command: openflow.FlowModAdd, Priority: 1, IdleTimeout: idle,
			Match: &openflow.Match{TCPDst: openflow.U16(port)},
		})
	}
	// Half the table idles out after 5 s, half after 60 s.
	for i := uint16(0); i < capacity; i++ {
		idle := uint16(60)
		if i%2 == 0 {
			idle = 5
		}
		if err := add(i, idle); err != nil {
			t.Fatal(err)
		}
	}
	tbl := sw.tables[0]
	for i := 0; i < 100; i++ {
		if err := add(1000, 0); err == nil {
			t.Fatal("full table accepted an entry")
		}
	}
	if tbl.scanned != 0 {
		t.Fatalf("refused adds with no deadline due visited %d entries, want 0", tbl.scanned)
	}

	clk.ScheduleAfter(10*time.Second, func() {})
	clk.Run()
	if err := add(1000, 0); err != nil {
		t.Fatalf("add after the short entries expired: %v", err)
	}
	if tbl.scanned != capacity {
		t.Fatalf("first add past the deadline visited %d entries, want one scan of %d", tbl.scanned, capacity)
	}
	if got := sw.FlowCount(0); got != capacity/2+1 {
		t.Fatalf("table holds %d entries, want %d", got, capacity/2+1)
	}
	// Fill the freed slots with entries that never expire, then refuse
	// again: the next deadline is 60 s out, so nothing is scanned.
	for i := uint16(2000); sw.FlowCount(0) < capacity; i++ {
		if err := add(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := tbl.scanned
	if err := add(3000, 0); err == nil {
		t.Fatal("full table accepted an entry")
	}
	if tbl.scanned != before {
		t.Fatalf("refused add before the next deadline visited %d entries", tbl.scanned-before)
	}
}

func TestExactIndexPriorityDemotion(t *testing.T) {
	// Two rules with the same canonical exact match but different
	// priorities cannot share the index slot; the higher priority must
	// still win lookups.
	sw := NewSwitch(Config{DPID: 1})
	var lo, hi collector
	if err := sw.AttachPort(2, lo.deliver); err != nil {
		t.Fatal(err)
	}
	if err := sw.AttachPort(3, hi.deliver); err != nil {
		t.Fatal(err)
	}
	key, err := netpkt.ExtractFlowKey(tcpFrame(1000, 80))
	if err != nil {
		t.Fatal(err)
	}
	m := openflow.ExactMatchFor(key, 1)
	addFlow(t, sw, 0, 10, m, outputTo(2))
	addFlow(t, sw, 0, 20, m.Clone(), outputTo(3))
	if sw.FlowCount(0) != 2 {
		t.Fatalf("FlowCount = %d, want 2 distinct priorities", sw.FlowCount(0))
	}
	sw.Inject(1, tcpFrame(1000, 80))
	if hi.count() != 1 || lo.count() != 0 {
		t.Fatalf("hi=%d lo=%d, want high priority to win", hi.count(), lo.count())
	}
	// Deleting the high-priority entry re-exposes the low one.
	err = sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModDeleteStrict, Priority: 20, Match: m.Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.Inject(1, tcpFrame(1000, 80))
	if lo.count() != 1 {
		t.Fatalf("lo=%d after delete, want 1", lo.count())
	}
}
