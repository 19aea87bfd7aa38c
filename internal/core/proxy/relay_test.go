package proxy

import (
	"io"
	"reflect"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

func relayFlowMod() *openflow.FlowMod {
	return &openflow.FlowMod{
		Cookie:   0xc0de,
		TableID:  0,
		Command:  openflow.FlowModAdd,
		Priority: 300,
		BufferID: openflow.NoBuffer,
		Match:    &openflow.Match{InPort: openflow.U32(4), EthType: openflow.U16(0x0800)},
		Instructions: []openflow.Instruction{
			&openflow.InstructionApplyActions{Actions: []openflow.Action{
				&openflow.ActionOutput{Port: 2, MaxLen: openflow.ControllerMaxLen},
			}},
			&openflow.InstructionGotoTable{TableID: 1},
		},
	}
}

// TestFrameRelayMatchesDecodedRewrite: a controller flow-mod relayed
// through handleFrameFromController reaches the switch with its table id
// and goto-table target shifted up one table, and with every other field,
// the match, the actions and the xid exactly as the controller sent them.
func TestFrameRelayMatchesDecodedRewrite(t *testing.T) {
	sess, _, swFar := newRewriteHarnessBoth(t)
	var f openflow.Frame
	if err := f.AppendMessageTo(11, relayFlowMod()); err != nil {
		t.Fatal(err)
	}
	if err := sess.handleFrameFromController(&f); err != nil {
		t.Fatal(err)
	}
	if err := sess.sw.Flush(); err != nil {
		t.Fatal(err)
	}
	xid, got, err := swFar.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if xid != 11 {
		t.Fatalf("xid at switch = %d, want 11", xid)
	}
	want := relayFlowMod()
	want.TableID = 1
	want.Instructions[1] = &openflow.InstructionGotoTable{TableID: 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("switch received %+v\nwant             %+v", got, want)
	}
}

// TestFrameRelaySwitchToController covers the switch→controller frame
// rewrites: table-1+ packet-ins and flow-removed shift down one table,
// table-0 flow-removed (DFI's own rules) are consumed, and unmodeled
// types pass through byte for byte.
func TestFrameRelaySwitchToController(t *testing.T) {
	sess, ctlFar, _ := newRewriteHarnessBoth(t)
	send := func(m openflow.Message) {
		t.Helper()
		var f openflow.Frame
		if err := f.AppendMessageTo(3, m); err != nil {
			t.Fatal(err)
		}
		if err := sess.handleFrameFromSwitch(&f); err != nil {
			t.Fatal(err)
		}
		if err := sess.ctl.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	send(&openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		Reason:   openflow.PacketInReasonNoMatch,
		TableID:  2,
		Match:    &openflow.Match{InPort: openflow.U32(1)},
		Data:     []byte{0xde, 0xad},
	})
	if _, m, err := ctlFar.Recv(); err != nil {
		t.Fatal(err)
	} else if pi := m.(*openflow.PacketIn); pi.TableID != 1 {
		t.Fatalf("packet-in table at controller = %d, want 1", pi.TableID)
	}

	// Table-0 flow-removed: DFI's rule, consumed silently.
	send(&openflow.FlowRemoved{Cookie: 7, TableID: 0, Match: &openflow.Match{}})
	// Table-2 flow-removed: shifted and forwarded.
	send(&openflow.FlowRemoved{Cookie: 8, TableID: 2, Match: &openflow.Match{}})
	if _, m, err := ctlFar.Recv(); err != nil {
		t.Fatal(err)
	} else if fr := m.(*openflow.FlowRemoved); fr.Cookie != 8 || fr.TableID != 1 {
		t.Fatalf("flow-removed at controller = %+v (the table-0 one must be consumed)", fr)
	}

	// Unmodeled type: transparent passthrough.
	send(&openflow.EchoRequest{Data: []byte("keepalive")})
	if _, m, err := ctlFar.Recv(); err != nil {
		t.Fatal(err)
	} else if e := m.(*openflow.EchoRequest); string(e.Data) != "keepalive" {
		t.Fatalf("passthrough = %+v", m)
	}
}

// TestRelayCoalescesBurst: a burst of messages written to the controller
// side before the relay wakes must cross the proxy and appear on the
// switch side intact and in order (the relay queues them all and flushes
// once when its input runs dry).
func TestRelayCoalescesBurst(t *testing.T) {
	sess, ctlFar, swFar := newRewriteHarnessBoth(t)
	go func() { _ = sess.relayControllerToSwitch() }()

	const n = 16
	for i := 0; i < n; i++ {
		fm := relayFlowMod()
		fm.Cookie = uint64(i)
		if err := ctlFar.SendXID(uint32(i+1), fm); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		xid, m, err := swFar.Recv()
		if err != nil {
			t.Fatal(err)
		}
		fm, ok := m.(*openflow.FlowMod)
		if !ok || xid != uint32(i+1) || fm.Cookie != uint64(i) {
			t.Fatalf("message %d: xid=%d %+v", i, xid, m)
		}
		if fm.TableID != 1 {
			t.Fatalf("message %d not shifted: table %d", i, fm.TableID)
		}
	}
}

// newThroughputSession builds a bare session with raw pipe far ends, so
// the benchmark can write wire bytes and drain them without the framing
// cost landing inside the measured region.
func newThroughputSession(b *testing.B) (*session, *bufpipe.Conn, *bufpipe.Conn) {
	b.Helper()
	p := pcp.New(pcp.Config{Entity: entity.NewManager(), Policy: policy.NewManager()})
	prx, err := New(Config{PCP: p, DialController: func() (io.ReadWriteCloser, error) {
		a, _ := bufpipe.New()
		return a, nil
	}})
	if err != nil {
		b.Fatal(err)
	}
	swNear, swFar := bufpipe.New()
	ctlNear, ctlFar := bufpipe.New()
	b.Cleanup(func() {
		swNear.Close()
		ctlNear.Close()
	})
	sess := &session{
		proxy: prx,
		sw:    openflow.NewConn(swNear),
		ctl:   openflow.NewConn(ctlNear),
	}
	return sess, ctlFar, swFar
}

// BenchmarkRelayThroughput pushes controller flow-mods through the live
// relay loop (frame read → in-place table shift → coalesced write) and
// measures sustained per-message cost; ns/op is one message end to end
// across the proxy.
func BenchmarkRelayThroughput(b *testing.B) {
	sess, ctlFar, swFar := newThroughputSession(b)
	go func() { _ = sess.relayControllerToSwitch() }()

	wire, err := openflow.Encode(1, relayFlowMod())
	if err != nil {
		b.Fatal(err)
	}
	expect := int64(len(wire)) * int64(b.N)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64<<10)
		var total int64
		for total < expect {
			n, err := swFar.Read(buf)
			if err != nil {
				return
			}
			total += int64(n)
		}
	}()

	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctlFar.Write(wire); err != nil {
			b.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		b.Fatal("relay stalled")
	}
}
