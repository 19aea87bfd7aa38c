package openflow

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
)

// sampleFlowMod builds a representative flow-mod: full match, apply-actions
// and a goto-table — the shape the proxy relays and the PCP installs.
func sampleFlowMod() *FlowMod {
	return &FlowMod{
		Cookie:      0xd0f1000000000001,
		CookieMask:  0xffffffffffffffff,
		TableID:     1,
		Command:     FlowModAdd,
		IdleTimeout: 30,
		HardTimeout: 300,
		Priority:    1000,
		BufferID:    NoBuffer,
		Match:       sampleMatch(),
		Instructions: []Instruction{
			&InstructionApplyActions{Actions: []Action{&ActionOutput{Port: 2, MaxLen: ControllerMaxLen}}},
			&InstructionGotoTable{TableID: 3},
		},
	}
}

func samplePacketIn() *PacketIn {
	return &PacketIn{
		BufferID: NoBuffer,
		Reason:   PacketInReasonNoMatch,
		TableID:  1,
		Cookie:   0xd0f1,
		Match:    &Match{InPort: U32(3)},
		Data:     bytes.Repeat([]byte{0xab}, 64),
	}
}

// TestAppendMessageErrorRestoresDst: a failed encode must return the
// destination unchanged (truncated back to the original length).
func TestAppendMessageErrorRestoresDst(t *testing.T) {
	huge := &Raw{RawType: 0x63, Body: make([]byte, MaxMessageLen)}
	dst := []byte{1, 2, 3}
	got, err := AppendMessage(dst, 1, huge)
	if err == nil {
		t.Fatal("want oversize error")
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("dst after error = % x", got)
	}
}

// TestAppendMessageRefusesOverLengthField: an 800-entry flow-stats reply
// encodes to more bytes than the 16-bit header length can name. Encoding
// it must fail with the oversize error and leave dst as it was, never
// send a header whose length wraps.
func TestAppendMessageRefusesOverLengthField(t *testing.T) {
	reply := &MultipartReply{PartType: MultipartFlow}
	for i := range 800 {
		reply.Flows = append(reply.Flows, &FlowStatsEntry{
			Priority: 100, Cookie: uint64(i), Match: sampleMatch(),
			Instructions: []Instruction{&InstructionApplyActions{Actions: []Action{&ActionOutput{Port: 1}}}},
		})
	}
	body, err := reply.AppendBody(nil)
	if err != nil {
		t.Fatal(err)
	}
	if headerLen+len(body) <= math.MaxUint16 {
		t.Fatalf("reply is only %d bytes; the test needs one the length field cannot name", headerLen+len(body))
	}
	dst := []byte{1, 2, 3}
	got, err := AppendMessage(dst, 1, reply)
	if err == nil || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("err = %v, want the oversize error", err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("dst after error = % x", got)
	}
}

func frameFor(t *testing.T, xid uint32, m Message) *Frame {
	t.Helper()
	var f Frame
	if err := f.AppendMessageTo(xid, m); err != nil {
		t.Fatalf("frame encode %v: %v", m.Type(), err)
	}
	return &f
}

// TestShiftFlowModTablesParity checks the in-place frame rewrite against
// the decoded message: table id and every goto-table target shift by
// delta, OFPTT_ALL stays, shifts clamp at table 0.
func TestShiftFlowModTablesParity(t *testing.T) {
	f := frameFor(t, 7, sampleFlowMod())
	orig := append([]byte(nil), f.Bytes()...)
	if !f.ShiftFlowModTables(+1) {
		t.Fatal("ShiftFlowModTables = false on valid flow-mod")
	}
	_, m, err := f.Decode()
	if err != nil {
		t.Fatal(err)
	}
	fm := m.(*FlowMod)
	if fm.TableID != 2 {
		t.Fatalf("TableID = %d, want 2", fm.TableID)
	}
	var gt *InstructionGotoTable
	for _, in := range fm.Instructions {
		if g, ok := in.(*InstructionGotoTable); ok {
			gt = g
		}
	}
	if gt == nil || gt.TableID != 4 {
		t.Fatalf("goto-table after shift = %+v", gt)
	}
	// Everything except the two table bytes must be untouched.
	f.ShiftFlowModTables(-1)
	if !bytes.Equal(f.Bytes(), orig) {
		t.Fatal("shift +1 then -1 does not round-trip the frame bytes")
	}

	// Clamp at 0: shifting table 0 down stays at 0.
	zero := sampleFlowMod()
	zero.TableID = 0
	zero.Instructions = []Instruction{&InstructionGotoTable{TableID: 0}}
	fz := frameFor(t, 7, zero)
	fz.ShiftFlowModTables(-1)
	_, m, err = fz.Decode()
	if err != nil {
		t.Fatal(err)
	}
	fm = m.(*FlowMod)
	if fm.TableID != 0 || fm.Instructions[0].(*InstructionGotoTable).TableID != 0 {
		t.Fatalf("clamped shift: table=%d instr=%+v", fm.TableID, fm.Instructions[0])
	}

	// OFPTT_ALL (wildcard delete) must not shift.
	all := &FlowMod{Command: FlowModDelete, TableID: AllTables, Match: &Match{}}
	fa := frameFor(t, 7, all)
	if !fa.ShiftFlowModTables(+1) {
		t.Fatal("ShiftFlowModTables = false on OFPTT_ALL delete")
	}
	if _, m, err = fa.Decode(); err != nil {
		t.Fatal(err)
	}
	if tid := m.(*FlowMod).TableID; tid != AllTables {
		t.Fatalf("OFPTT_ALL shifted to %d", tid)
	}
}

// TestShiftFlowModTablesMalformed: a structurally invalid instruction list
// must leave the frame byte-for-byte untouched (the caller falls back to
// Decode, which reports the same error the old path did).
func TestShiftFlowModTablesMalformed(t *testing.T) {
	f := frameFor(t, 7, sampleFlowMod())
	b := f.Bytes()
	// Corrupt the first instruction's length to an impossible value.
	mlen := int(uint16(b[headerLen+matchOffInFlowMod+2])<<8 | uint16(b[headerLen+matchOffInFlowMod+3]))
	ioff := headerLen + matchOffInFlowMod + (mlen+7)/8*8
	b[ioff+2], b[ioff+3] = 0, 5 // ilen 5 < 8
	before := append([]byte(nil), b...)
	if f.ShiftFlowModTables(+1) {
		t.Fatal("ShiftFlowModTables = true on malformed instruction list")
	}
	if !bytes.Equal(f.Bytes(), before) {
		t.Fatal("malformed frame was modified")
	}
}

func TestShiftPacketInAndFlowRemoved(t *testing.T) {
	fp := frameFor(t, 7, samplePacketIn())
	if tid, ok := fp.PacketInTableID(); !ok || tid != 1 {
		t.Fatalf("PacketInTableID = %d,%v", tid, ok)
	}
	if !fp.ShiftPacketInTable(-1) {
		t.Fatal("ShiftPacketInTable = false")
	}
	if _, m, err := fp.Decode(); err != nil {
		t.Fatal(err)
	} else if tid := m.(*PacketIn).TableID; tid != 0 {
		t.Fatalf("packet-in table after shift = %d", tid)
	}

	fr := frameFor(t, 7, &FlowRemoved{Cookie: 1, TableID: 2, Match: sampleMatch()})
	if tid, ok := fr.FlowRemovedTableID(); !ok || tid != 2 {
		t.Fatalf("FlowRemovedTableID = %d,%v", tid, ok)
	}
	if !fr.ShiftFlowRemovedTable(-1) {
		t.Fatal("ShiftFlowRemovedTable = false")
	}
	if _, m, err := fr.Decode(); err != nil {
		t.Fatal(err)
	} else if tid := m.(*FlowRemoved).TableID; tid != 1 {
		t.Fatalf("flow-removed table after shift = %d", tid)
	}

	// Wrong-type frames refuse the rewrite.
	if fp.ShiftFlowRemovedTable(1) || fr.ShiftPacketInTable(1) {
		t.Fatal("shift applied to wrong message type")
	}
}

func TestShiftTableModTable(t *testing.T) {
	f := frameFor(t, 7, &TableMod{TableID: 1, Config: 3})
	if !f.ShiftTableModTable(+1) {
		t.Fatal("ShiftTableModTable = false")
	}
	if _, m, err := f.Decode(); err != nil {
		t.Fatal(err)
	} else if tm := m.(*TableMod); tm.TableID != 2 || tm.Config != 3 {
		t.Fatalf("table-mod after shift = %+v", tm)
	}
	fa := frameFor(t, 7, &TableMod{TableID: AllTables})
	fa.ShiftTableModTable(+1)
	if _, m, _ := fa.Decode(); m.(*TableMod).TableID != AllTables {
		t.Fatal("OFPTT_ALL table-mod shifted")
	}
}

// TestReadFrameRoundTrip: ReadFrame must apply the same header validation
// as ReadMessage and reuse its buffer across reads.
func TestReadFrameRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	b1, _ := Encode(1, sampleFlowMod())
	b2, _ := Encode(2, &Hello{})
	stream.Write(b1)
	stream.Write(b2)

	var f Frame
	if err := ReadFrame(&stream, &f); err != nil {
		t.Fatal(err)
	}
	if f.Type() != TypeFlowMod || f.XID() != 1 || !bytes.Equal(f.Bytes(), b1) {
		t.Fatalf("frame 1 = %v xid=%d", f.Type(), f.XID())
	}
	if err := ReadFrame(&stream, &f); err != nil {
		t.Fatal(err)
	}
	if f.Type() != TypeHello || f.XID() != 2 || !bytes.Equal(f.Bytes(), b2) {
		t.Fatalf("frame 2 = %v xid=%d", f.Type(), f.XID())
	}

	// Same rejects as ReadMessage.
	if err := ReadFrame(bytes.NewReader([]byte{0x01, 0, 0, 8, 0, 0, 0, 1}), &f); err == nil {
		t.Fatal("want bad-version error")
	}
	if err := ReadFrame(bytes.NewReader([]byte{0x04, 0, 0, 4, 0, 0, 0, 1}), &f); err == nil {
		t.Fatal("want bad-length error")
	}
	if err := ReadFrame(bytes.NewReader([]byte{0x04, 2, 0, 16, 0, 0, 0, 1, 0xaa}), &f); err == nil {
		t.Fatal("want truncated-body error")
	}
}

// TestPooledReadBufferAliasing locks in the no-aliasing contract that makes
// the pooled read buffer safe: a message retained from ReadMessage must be
// unaffected by later reads that recycle the same scratch buffer. Raw is
// the riskiest type (its body is the entire buffer), so it is the probe.
func TestPooledReadBufferAliasing(t *testing.T) {
	enc := func(xid uint32, fill byte, n int) []byte {
		b, err := Encode(xid, &Raw{RawType: 0x63, Body: bytes.Repeat([]byte{fill}, n)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var stream bytes.Buffer
	stream.Write(enc(1, 0x11, 100))
	stream.Write(enc(2, 0x22, 100))

	_, m1, err := ReadMessage(&stream)
	if err != nil {
		t.Fatal(err)
	}
	retained := m1.(*Raw)
	want := append([]byte(nil), retained.Body...)
	// Force pool churn: the second read recycles the first read's buffer.
	if _, _, err := ReadMessage(&stream); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		r := bytes.NewReader(enc(3, byte(i), 100))
		if _, _, err := ReadMessage(r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(retained.Body, want) {
		t.Fatalf("retained body corrupted by pooled-buffer reuse: % x", retained.Body[:8])
	}
}

// countingWriter counts Write syscalls; reads always block (never used).
type countingWriter struct {
	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	return w.buf.Write(p)
}

func (w *countingWriter) Read([]byte) (int, error) { return 0, io.EOF }

func (w *countingWriter) snapshot() (int, []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes, append([]byte(nil), w.buf.Bytes()...)
}

func decodeAll(t *testing.T, b []byte) []Message {
	t.Helper()
	r := bytes.NewReader(b)
	var msgs []Message
	for r.Len() > 0 {
		_, m, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("decode stream: %v", err)
		}
		msgs = append(msgs, m)
	}
	return msgs
}

// TestConnQueueCoalesces: queued messages stay buffered until Flush, which
// emits them in one write.
func TestConnQueueCoalesces(t *testing.T) {
	w := &countingWriter{}
	c := NewConn(w)
	for i := 0; i < 3; i++ {
		if _, err := c.Queue(&EchoRequest{Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := w.snapshot(); n != 0 {
		t.Fatalf("writes before flush = %d, want 0", n)
	}
	if got := c.Buffered(); got == 0 {
		t.Fatal("Buffered() = 0 with queued messages")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	n, b := w.snapshot()
	if n != 1 {
		t.Fatalf("writes after flush = %d, want 1", n)
	}
	if msgs := decodeAll(t, b); len(msgs) != 3 {
		t.Fatalf("decoded %d messages, want 3", len(msgs))
	}
	if c.Buffered() != 0 {
		t.Fatal("Buffered() != 0 after flush")
	}
}

// TestConnSendDrainsQueue: a write-through Send must flush queued bytes
// ahead of itself so stream order is preserved, in a single write.
func TestConnSendDrainsQueue(t *testing.T) {
	w := &countingWriter{}
	c := NewConn(w)
	if _, err := c.Queue(&EchoRequest{Data: []byte("q")}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendXID(9, &EchoReply{Data: []byte("s")}); err != nil {
		t.Fatal(err)
	}
	n, b := w.snapshot()
	if n != 1 {
		t.Fatalf("writes = %d, want 1 (queue drained with the send)", n)
	}
	msgs := decodeAll(t, b)
	if len(msgs) != 2 {
		t.Fatalf("decoded %d messages, want 2", len(msgs))
	}
	if _, ok := msgs[0].(*EchoRequest); !ok {
		t.Fatalf("queued message not first: %T", msgs[0])
	}
	if _, ok := msgs[1].(*EchoReply); !ok {
		t.Fatalf("sent message not second: %T", msgs[1])
	}
}

// TestConnFlushThreshold: queueing past DefaultFlushThreshold forces a
// flush without an explicit Flush call; below it nothing is written.
func TestConnFlushThreshold(t *testing.T) {
	w := &countingWriter{}
	c := NewConn(w)
	payload := make([]byte, 1024)
	below := DefaultFlushThreshold / (headerLen + len(payload))
	for i := 0; i < below; i++ {
		if _, err := c.Queue(&EchoRequest{Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := w.snapshot(); n != 0 {
		t.Fatalf("writes = %d below the threshold, want 0", n)
	}
	if _, err := c.Queue(&EchoRequest{Data: payload}); err != nil {
		t.Fatal(err)
	}
	if n, _ := w.snapshot(); n != 1 {
		t.Fatalf("writes = %d, want 1 (threshold flush)", n)
	}
	if c.Buffered() != 0 {
		t.Fatal("buffer not drained by threshold flush")
	}
}

// TestConnQueueFrame: frames pass through the coalescing buffer verbatim.
func TestConnQueueFrame(t *testing.T) {
	w := &countingWriter{}
	c := NewConn(w)
	f := frameFor(t, 5, sampleFlowMod())
	want := append([]byte(nil), f.Bytes()...)
	if err := c.QueueFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	_, b := w.snapshot()
	if !bytes.Equal(b, want) {
		t.Fatalf("forwarded frame differs from source:\n got % x\nwant % x", b, want)
	}
}

// TestConnConcurrentSendRecvHammer drives many goroutines through the
// pooled encode path of a single Conn while the peer decodes and validates
// every message. Each flow-mod's fields are derived from its cookie, so any
// cross-goroutine pool corruption or aliasing shows up as a field mismatch.
// Run with -race to also catch unsynchronized buffer reuse.
func TestConnConcurrentSendRecvHammer(t *testing.T) {
	const (
		senders = 8
		perSend = 50
	)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	src, sink := NewConn(a), NewConn(b)

	mkFlowMod := func(c uint64) *FlowMod {
		return &FlowMod{
			Cookie:   c,
			TableID:  uint8(c % 32),
			Command:  FlowModAdd,
			Priority: uint16(c),
			BufferID: NoBuffer,
			Match:    &Match{InPort: U32(uint32(c))},
			Instructions: []Instruction{
				&InstructionGotoTable{TableID: uint8(c%32) + 1},
			},
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, senders+1)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSend; i++ {
				c := uint64(s*perSend + i + 1)
				var err error
				if s%2 == 0 {
					_, err = src.Send(mkFlowMod(c))
				} else {
					// Queue + flush exercises the coalescing path
					// concurrently with write-through sends.
					if _, err = src.Queue(mkFlowMod(c)); err == nil {
						err = src.Flush()
					}
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(s)
	}

	retained := make([]*FlowMod, 0, 8)
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for n := 0; n < senders*perSend; n++ {
			_, m, err := sink.Recv()
			if err != nil {
				errc <- err
				return
			}
			fm, ok := m.(*FlowMod)
			if !ok {
				errc <- fmt.Errorf("message %d: got %T", n, m)
				return
			}
			c := fm.Cookie
			if fm.Priority != uint16(c) || fm.TableID != uint8(c%32) ||
				fm.Match == nil || fm.Match.InPort == nil || *fm.Match.InPort != uint32(c) ||
				len(fm.Instructions) != 1 ||
				fm.Instructions[0].(*InstructionGotoTable).TableID != uint8(c%32)+1 {
				errc <- fmt.Errorf("cookie %d: inconsistent decode %+v", c, fm)
				return
			}
			if len(retained) < cap(retained) {
				retained = append(retained, fm)
			}
		}
	}()

	wg.Wait()
	<-recvDone
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Retained messages must still be self-consistent after the pooled
	// read buffer has been recycled hundreds of times.
	for _, fm := range retained {
		if fm.Priority != uint16(fm.Cookie) || *fm.Match.InPort != uint32(fm.Cookie) {
			t.Fatalf("retained flow-mod corrupted: %+v", fm)
		}
	}
}

// BenchmarkWireEncode measures the append-style encoders on the two
// messages the hot path cares about. Steady state must be 0 allocs/op
// (gated by TestWireEncodeZeroAlloc at the repo root).
func BenchmarkWireEncode(b *testing.B) {
	bench := func(b *testing.B, m Message) {
		buf := make([]byte, 0, 512)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendMessage(buf[:0], uint32(i), m)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("FlowMod", func(b *testing.B) { bench(b, sampleFlowMod()) })
	b.Run("PacketIn", func(b *testing.B) { bench(b, samplePacketIn()) })
}

// BenchmarkWireDecode measures full ReadMessage decode (pooled read buffer
// + typed unmarshal) from an in-memory stream.
func BenchmarkWireDecode(b *testing.B) {
	bench := func(b *testing.B, m Message) {
		wire, err := Encode(1, m)
		if err != nil {
			b.Fatal(err)
		}
		r := bytes.NewReader(wire)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(wire)
			if _, _, err := ReadMessage(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("FlowMod", func(b *testing.B) { bench(b, sampleFlowMod()) })
	b.Run("PacketIn", func(b *testing.B) { bench(b, samplePacketIn()) })
}

// BenchmarkWireFrameRelay measures the zero-copy relay primitive: read a
// frame, shift its table space in place, queue it for coalesced write.
func BenchmarkWireFrameRelay(b *testing.B) {
	wire, err := Encode(1, sampleFlowMod())
	if err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(wire)
	c := NewConn(discardRW{})
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(wire)
		if err := ReadFrame(r, &f); err != nil {
			b.Fatal(err)
		}
		if !f.ShiftFlowModTables(+1) {
			b.Fatal("shift failed")
		}
		if err := c.QueueFrame(&f); err != nil {
			b.Fatal(err)
		}
	}
}

// discardRW is an io.ReadWriter that swallows writes (benchmark sink).
type discardRW struct{}

func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (discardRW) Read([]byte) (int, error)    { return 0, io.EOF }
