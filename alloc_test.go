package dfi_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// TestAdmissionHotPathZeroAlloc is the CI gate behind the 0 B/op claim of
// BenchmarkPCP_AdmissionHotPath/cache-hit: with metrics enabled (the PCP
// always carries a live registry) and a span store attached, a cache-hit
// re-admission — its root and stage spans included — must not allocate.
func TestAdmissionHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	pm := policyBenchManager(t, 1000)
	erm := entity.NewManager()
	erm.BindIPMAC(netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseMAC("02:00:00:00:00:01"))
	erm.BindHostIP("h1", netpkt.MustParseIPv4("10.0.0.1"))
	erm.BindUserHost("alice", "h1")
	p := pcp.New(pcp.Config{
		Entity: erm,
		Policy: pm,
		Spans:  obs.NewSpanStore(64, nil),
	})
	p.AttachSwitch(1, nopSwitch{})
	req := hotPathRequest()
	p.Process(req) // prime the decision cache

	if allocs := testing.AllocsPerRun(200, func() { p.Process(req) }); allocs != 0 {
		t.Fatalf("cache-hit admission allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAdmissionZeroAllocAsAssembled runs the same gate on the PCP dfi.New
// builds — the one dfid serves — so the gate measures what ships: its span
// store, its registry and its decision cache at their defaults.
func TestAdmissionZeroAllocAsAssembled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys, err := dfi.New(dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		return nil, errors.New("no controller")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	erm := sys.Entity()
	erm.BindIPMAC(netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseMAC("02:00:00:00:00:01"))
	erm.BindHostIP("h1", netpkt.MustParseIPv4("10.0.0.1"))
	erm.BindUserHost("alice", "h1")
	if err := sys.Policy().RegisterPDP("ops", 50); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Policy().Insert(dfi.Rule{PDP: "ops", Action: dfi.ActionAllow,
		Src: dfi.EndpointSpec{User: "alice"}}); err != nil {
		t.Fatal(err)
	}
	sys.PCP().AttachSwitch(1, nopSwitch{})
	req := hotPathRequest()
	sys.PCP().Process(req) // prime the decision cache
	hits := sys.PCP().Metrics().CacheHits()

	if allocs := testing.AllocsPerRun(200, func() { sys.PCP().Process(req) }); allocs != 0 {
		t.Fatalf("cache-hit admission as dfi.New assembles it allocates %.1f objects/op, want 0", allocs)
	}
	if sys.PCP().Metrics().CacheHits() == hits {
		t.Fatal("the measured admissions missed the decision cache")
	}
}

// hotPathRequest is a packet-in for the flow the zero-alloc gates re-admit.
func hotPathRequest() *pcp.Request {
	return &pcp.Request{DPID: 1, PacketIn: &openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		Reason:   openflow.PacketInReasonNoMatch,
		Match:    &openflow.Match{InPort: openflow.U32(3)},
		Data:     benchFrame(),
	}}
}

// TestWireEncodeZeroAlloc gates the append-style OpenFlow encoder: a
// steady-state flow-mod encode into a reused buffer (the shape Conn.Send
// and the PCP install path run) must not allocate.
func TestWireEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	fm := &openflow.FlowMod{
		Cookie:   0xd0f1,
		TableID:  0,
		Command:  openflow.FlowModAdd,
		Priority: 500,
		BufferID: openflow.NoBuffer,
		Match: &openflow.Match{
			InPort:  openflow.U32(3),
			EthType: openflow.U16(0x0800),
			IPProto: openflow.U8(6),
			TCPDst:  openflow.U16(445),
		},
		Instructions: []openflow.Instruction{
			&openflow.InstructionGotoTable{TableID: 1},
		},
	}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = openflow.AppendMessage(buf[:0], 7, fm)
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("flow-mod encode allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRelayForwardZeroAlloc gates the proxy relay's forward primitive:
// read a frame from the stream, shift its table space in place, queue it
// on the peer's coalescing buffer, flush. After priming (pool and buffer
// warm-up), the loop must not allocate — this is the path every relayed
// flow-mod takes through the DFI proxy.
func TestRelayForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	fm := &openflow.FlowMod{
		TableID:  0,
		Command:  openflow.FlowModAdd,
		BufferID: openflow.NoBuffer,
		Match:    &openflow.Match{InPort: openflow.U32(1)},
		Instructions: []openflow.Instruction{
			&openflow.InstructionGotoTable{TableID: 1},
		},
	}
	wire, err := openflow.Encode(1, fm)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire)
	c := openflow.NewConn(nopStream{})
	var f openflow.Frame
	forward := func() {
		r.Reset(wire)
		if err := openflow.ReadFrame(r, &f); err != nil {
			t.Fatal(err)
		}
		if !f.ShiftFlowModTables(+1) {
			t.Fatal("shift refused")
		}
		if err := c.QueueFrame(&f); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	forward() // prime frame buffer and write buffer
	if allocs := testing.AllocsPerRun(200, forward); allocs != 0 {
		t.Fatalf("relay forward allocates %.1f objects/op, want 0", allocs)
	}
}

// nopStream swallows writes and never yields reads (alloc-gate sink).
type nopStream struct{}

func (nopStream) Write(p []byte) (int, error) { return len(p), nil }
func (nopStream) Read([]byte) (int, error)    { return 0, io.EOF }

// TestAdmissionZeroAllocWithLanguagePolicy re-runs the cache-hit zero-alloc
// gate with the 1000-rule policy produced by the policytext compiler
// instead of hand-inserted rules: lowering through groups must yield plain
// manager rules whose admission path stays 0 B/op.
func TestAdmissionZeroAllocWithLanguagePolicy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	pm := policy.NewManager()
	eng := compile.NewEngine(pm, nil)
	var src bytes.Buffer
	src.WriteString("group quarantined {\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&src, "  host q%d\n", i)
	}
	src.WriteString("}\n\npdp lang priority 30\ndeny from group quarantined\nallow from user alice\n")
	if _, err := eng.SetSource(src.String()); err != nil {
		t.Fatal(err)
	}
	if pm.Len() != 1001 {
		t.Fatalf("compiled policy has %d rules", pm.Len())
	}
	erm := entity.NewManager()
	erm.BindIPMAC(netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseMAC("02:00:00:00:00:01"))
	erm.BindHostIP("h1", netpkt.MustParseIPv4("10.0.0.1"))
	erm.BindUserHost("alice", "h1")
	p := pcp.New(pcp.Config{
		Entity: erm,
		Policy: pm,
		Spans:  obs.NewSpanStore(64, nil),
	})
	p.AttachSwitch(1, nopSwitch{})
	req := hotPathRequest()
	p.Process(req) // prime the decision cache

	if allocs := testing.AllocsPerRun(200, func() { p.Process(req) }); allocs != 0 {
		t.Fatalf("cache-hit admission over language-compiled policy allocates %.1f objects/op, want 0", allocs)
	}
}
