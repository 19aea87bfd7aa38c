package openflow

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"

	"github.com/dfi-sdn/dfi/internal/netpkt"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b, err := Encode(7, m)
	if err != nil {
		t.Fatalf("encode %v: %v", m.Type(), err)
	}
	xid, got, err := ReadMessage(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode %v: %v", m.Type(), err)
	}
	if xid != 7 {
		t.Fatalf("xid = %d, want 7", xid)
	}
	if got.Type() != m.Type() {
		t.Fatalf("type = %v, want %v", got.Type(), m.Type())
	}
	return got
}

func TestHeaderLayout(t *testing.T) {
	b, err := Encode(0xdeadbeef, &Hello{})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x04, 0x00, 0x00, 0x08, 0xde, 0xad, 0xbe, 0xef}
	if !bytes.Equal(b, want) {
		t.Fatalf("hello bytes = % x, want % x", b, want)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	got := roundTrip(t, &Hello{Elements: []byte{0, 1, 0, 8, 0, 0, 0, 0x10}})
	if h := got.(*Hello); len(h.Elements) != 8 {
		t.Fatalf("elements = %v", h.Elements)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	got := roundTrip(t, &EchoRequest{Data: []byte("ping")})
	if e := got.(*EchoRequest); string(e.Data) != "ping" {
		t.Fatalf("data = %q", e.Data)
	}
	got = roundTrip(t, &EchoReply{Data: []byte("pong")})
	if e := got.(*EchoReply); string(e.Data) != "pong" {
		t.Fatalf("data = %q", e.Data)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	got := roundTrip(t, &Error{ErrType: 5, Code: 9, Data: []byte{1, 2}})
	e := got.(*Error)
	if e.ErrType != 5 || e.Code != 9 || !bytes.Equal(e.Data, []byte{1, 2}) {
		t.Fatalf("got %+v", e)
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	fr := &FeaturesReply{
		DatapathID:   0x00000000000000ab,
		NumBuffers:   256,
		NumTables:    254,
		Capabilities: 0x47,
	}
	got := roundTrip(t, fr).(*FeaturesReply)
	if *got != *fr {
		t.Fatalf("got %+v, want %+v", got, fr)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	sc := &SetConfig{Flags: 0, MissSendLen: 0xffff}
	got := roundTrip(t, sc).(*SetConfig)
	if *got != *sc {
		t.Fatalf("got %+v, want %+v", got, sc)
	}
	gr := &GetConfigReply{MissSendLen: 128}
	got2 := roundTrip(t, gr).(*GetConfigReply)
	if *got2 != *gr {
		t.Fatalf("got %+v, want %+v", got2, gr)
	}
}

func sampleMatch() *Match {
	return &Match{
		InPort:  U32(3),
		EthSrc:  MACPtr(netpkt.MustParseMAC("02:00:00:00:00:01")),
		EthDst:  MACPtr(netpkt.MustParseMAC("02:00:00:00:00:02")),
		EthType: U16(netpkt.EtherTypeIPv4),
		IPProto: U8(netpkt.ProtoTCP),
		IPv4Src: IPPtr(netpkt.MustParseIPv4("10.0.0.1")),
		IPv4Dst: IPPtr(netpkt.MustParseIPv4("10.0.0.2")),
		TCPSrc:  U16(49152),
		TCPDst:  U16(445),
	}
}

func TestMatchRoundTrip(t *testing.T) {
	m := sampleMatch()
	b := m.AppendTo(nil)
	if len(b)%8 != 0 {
		t.Fatalf("match length %d not 8-aligned", len(b))
	}
	got, n, err := unmarshalMatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d, want %d", n, len(b))
	}
	if !got.Equal(m) {
		t.Fatalf("got %v, want %v", got, m)
	}
}

func TestEmptyMatchRoundTrip(t *testing.T) {
	m := &Match{}
	b := m.AppendTo(nil)
	if len(b) != 8 {
		t.Fatalf("empty match is %d bytes, want 8", len(b))
	}
	got, _, err := unmarshalMatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFields() != 0 {
		t.Fatalf("empty match decoded with %d fields", got.NumFields())
	}
}

func TestMatchUDPAndARPRoundTrip(t *testing.T) {
	m := &Match{
		EthType: U16(netpkt.EtherTypeIPv4),
		IPProto: U8(netpkt.ProtoUDP),
		UDPSrc:  U16(53),
		UDPDst:  U16(5353),
	}
	got, _, err := unmarshalMatch(m.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("got %v, want %v", got, m)
	}
	a := &Match{
		EthType: U16(netpkt.EtherTypeARP),
		ARPSPA:  IPPtr(netpkt.MustParseIPv4("10.0.0.1")),
		ARPTPA:  IPPtr(netpkt.MustParseIPv4("10.0.0.2")),
	}
	got, _, err = unmarshalMatch(a.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Fatalf("got %v, want %v", got, a)
	}
}

func TestMatchClone(t *testing.T) {
	m := sampleMatch()
	c := m.Clone()
	if !c.Equal(m) {
		t.Fatalf("clone %v != original %v", c, m)
	}
	*c.InPort = 99
	if *m.InPort == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestMatchesKey(t *testing.T) {
	frame := netpkt.BuildTCP(
		netpkt.MustParseMAC("02:00:00:00:00:01"), netpkt.MustParseMAC("02:00:00:00:00:02"),
		netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseIPv4("10.0.0.2"),
		&netpkt.TCPSegment{SrcPort: 49152, DstPort: 445, Flags: netpkt.TCPSyn},
	)
	k, err := netpkt.ExtractFlowKey(frame)
	if err != nil {
		t.Fatal(err)
	}
	m := sampleMatch()
	if !m.MatchesKey(k, 3) {
		t.Fatal("exact match should match its own packet")
	}
	if m.MatchesKey(k, 4) {
		t.Fatal("wrong in-port should not match")
	}
	wildcard := &Match{}
	if !wildcard.MatchesKey(k, 1) {
		t.Fatal("wildcard match should match everything")
	}
	udpOnly := &Match{IPProto: U8(netpkt.ProtoUDP)}
	if udpOnly.MatchesKey(k, 3) {
		t.Fatal("UDP match should not match TCP packet")
	}
}

func TestExactMatchForPinsAllFields(t *testing.T) {
	frame := netpkt.BuildTCP(
		netpkt.MustParseMAC("02:00:00:00:00:01"), netpkt.MustParseMAC("02:00:00:00:00:02"),
		netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseIPv4("10.0.0.2"),
		&netpkt.TCPSegment{SrcPort: 49152, DstPort: 445},
	)
	k, err := netpkt.ExtractFlowKey(frame)
	if err != nil {
		t.Fatal(err)
	}
	m := ExactMatchFor(k, 7)
	if m.NumFields() != 9 {
		t.Fatalf("exact TCP match pins %d fields, want 9: %v", m.NumFields(), m)
	}
	if !m.MatchesKey(k, 7) {
		t.Fatal("exact match must match the packet it was built from")
	}
	// A different source port must not match.
	k2 := k
	k2.L4Src = 50000
	if m.MatchesKey(k2, 7) {
		t.Fatal("exact match matched a different flow")
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	p := &PacketIn{
		BufferID: NoBuffer,
		Reason:   PacketInReasonNoMatch,
		TableID:  0,
		Cookie:   0xfeed,
		Match:    &Match{InPort: U32(12)},
		Data:     []byte{0xde, 0xad},
	}
	got := roundTrip(t, p).(*PacketIn)
	if got.BufferID != p.BufferID || got.Reason != p.Reason || got.Cookie != p.Cookie {
		t.Fatalf("got %+v", got)
	}
	if got.InPort() != 12 {
		t.Fatalf("InPort = %d, want 12", got.InPort())
	}
	if !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("data = %v", got.Data)
	}
	if got.TotalLen != 2 {
		t.Fatalf("TotalLen = %d, want 2 (defaulted)", got.TotalLen)
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	p := &PacketOut{
		BufferID: NoBuffer,
		InPort:   PortController,
		Actions:  []Action{&ActionOutput{Port: 4, MaxLen: ControllerMaxLen}},
		Data:     []byte{1, 2, 3},
	}
	got := roundTrip(t, p).(*PacketOut)
	if got.InPort != p.InPort || len(got.Actions) != 1 {
		t.Fatalf("got %+v", got)
	}
	out, ok := got.Actions[0].(*ActionOutput)
	if !ok || out.Port != 4 || out.MaxLen != ControllerMaxLen {
		t.Fatalf("action = %#v", got.Actions[0])
	}
	if !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("data = %v", got.Data)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	fm := &FlowMod{
		Cookie:      0xabcdef,
		CookieMask:  0xffffffff,
		TableID:     1,
		Command:     FlowModAdd,
		IdleTimeout: 30,
		HardTimeout: 0,
		Priority:    100,
		BufferID:    NoBuffer,
		OutPort:     PortAny,
		OutGroup:    0xffffffff,
		Flags:       FlowFlagSendFlowRem,
		Match:       sampleMatch(),
		Instructions: []Instruction{
			&InstructionApplyActions{Actions: []Action{&ActionOutput{Port: 2, MaxLen: 0}}},
			&InstructionGotoTable{TableID: 2},
		},
	}
	got := roundTrip(t, fm).(*FlowMod)
	if got.Cookie != fm.Cookie || got.TableID != 1 || got.Command != FlowModAdd ||
		got.Priority != 100 || got.IdleTimeout != 30 || got.Flags != FlowFlagSendFlowRem {
		t.Fatalf("got %+v", got)
	}
	if !got.Match.Equal(fm.Match) {
		t.Fatalf("match = %v, want %v", got.Match, fm.Match)
	}
	if len(got.Instructions) != 2 {
		t.Fatalf("instructions = %d, want 2", len(got.Instructions))
	}
	apply, ok := got.Instructions[0].(*InstructionApplyActions)
	if !ok || len(apply.Actions) != 1 {
		t.Fatalf("instr[0] = %#v", got.Instructions[0])
	}
	gt, ok := got.Instructions[1].(*InstructionGotoTable)
	if !ok || gt.TableID != 2 {
		t.Fatalf("instr[1] = %#v", got.Instructions[1])
	}
}

func TestFlowModReMarshalIsStable(t *testing.T) {
	fm := &FlowMod{
		Cookie: 1, TableID: 0, Command: FlowModDelete,
		BufferID: NoBuffer, OutPort: PortAny, OutGroup: 0xffffffff,
		Match: sampleMatch(),
	}
	b1, err := Encode(9, fm)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := ReadMessage(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(9, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-marshal differs:\n% x\n% x", b1, b2)
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	fr := &FlowRemoved{
		Cookie:      42,
		Priority:    10,
		Reason:      FlowRemovedDelete,
		TableID:     0,
		DurationSec: 5,
		PacketCount: 100,
		ByteCount:   6400,
		Match:       sampleMatch(),
	}
	got := roundTrip(t, fr).(*FlowRemoved)
	if got.Cookie != 42 || got.Reason != FlowRemovedDelete || got.PacketCount != 100 {
		t.Fatalf("got %+v", got)
	}
	if !got.Match.Equal(fr.Match) {
		t.Fatalf("match = %v", got.Match)
	}
}

func TestMultipartFlowStatsRoundTrip(t *testing.T) {
	req := &MultipartRequest{
		PartType: MultipartFlow,
		Flow: &FlowStatsRequest{
			TableID:    AllTables,
			OutPort:    PortAny,
			OutGroup:   0xffffffff,
			Cookie:     0xf0,
			CookieMask: 0xff,
			Match:      &Match{EthType: U16(netpkt.EtherTypeIPv4)},
		},
	}
	gotReq := roundTrip(t, req).(*MultipartRequest)
	if gotReq.Flow == nil || gotReq.Flow.TableID != AllTables || gotReq.Flow.Cookie != 0xf0 {
		t.Fatalf("got %+v", gotReq.Flow)
	}

	rep := &MultipartReply{
		PartType: MultipartFlow,
		Flows: []*FlowStatsEntry{
			{
				TableID: 0, Priority: 5, Cookie: 1, PacketCount: 7, ByteCount: 900,
				Match:        sampleMatch(),
				Instructions: []Instruction{&InstructionGotoTable{TableID: 1}},
			},
			{
				TableID: 1, Priority: 1, Cookie: 2,
				Match:        &Match{},
				Instructions: []Instruction{&InstructionApplyActions{Actions: []Action{&ActionOutput{Port: 1}}}},
			},
		},
	}
	gotRep := roundTrip(t, rep).(*MultipartReply)
	if len(gotRep.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(gotRep.Flows))
	}
	if gotRep.Flows[0].PacketCount != 7 || gotRep.Flows[0].TableID != 0 {
		t.Fatalf("flow[0] = %+v", gotRep.Flows[0])
	}
	if gotRep.Flows[1].TableID != 1 {
		t.Fatalf("flow[1] = %+v", gotRep.Flows[1])
	}
}

func TestMultipartNonFlowPassthrough(t *testing.T) {
	req := &MultipartRequest{PartType: MultipartDesc, RawBody: []byte{1, 2, 3}}
	got := roundTrip(t, req).(*MultipartRequest)
	if !bytes.Equal(got.RawBody, req.RawBody) {
		t.Fatalf("raw body = %v", got.RawBody)
	}
}

func TestRawPassthroughPreservesUnknownTypes(t *testing.T) {
	r := &Raw{RawType: TypeGroupMod, Body: []byte{9, 9, 9, 9}}
	b1, err := Encode(3, r)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := ReadMessage(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := m.(*Raw)
	if !ok {
		t.Fatalf("decoded %T, want *Raw", m)
	}
	if raw.Type() != TypeGroupMod {
		t.Fatalf("type = %v", raw.Type())
	}
	b2, err := Encode(3, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("raw passthrough not byte-identical")
	}
}

func TestReadMessageRejectsBadVersion(t *testing.T) {
	b := []byte{0x01, 0x00, 0x00, 0x08, 0, 0, 0, 1}
	if _, _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Fatal("want error for OF 1.0 version byte")
	}
}

func TestReadMessageRejectsBadLength(t *testing.T) {
	b := []byte{0x04, 0x00, 0x00, 0x04, 0, 0, 0, 1} // length 4 < header
	if _, _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Fatal("want error for undersized length")
	}
}

func TestReadMessageTruncatedBody(t *testing.T) {
	b := []byte{0x04, 0x02, 0x00, 0x10, 0, 0, 0, 1, 0xaa} // claims 16 bytes, has 9
	if _, _, err := ReadMessage(bytes.NewReader(b)); err == nil {
		t.Fatal("want error for truncated body")
	}
}

func TestConnSendRecv(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	done := make(chan error, 1)
	go func() {
		xid, m, err := cb.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- cb.SendXID(xid, &EchoReply{Data: m.(*EchoRequest).Data})
	}()
	xid, err := ca.Send(&EchoRequest{Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	gotXID, m, err := ca.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if gotXID != xid {
		t.Fatalf("reply xid = %d, want %d", gotXID, xid)
	}
	if rep, ok := m.(*EchoReply); !ok || string(rep.Data) != "x" {
		t.Fatalf("reply = %#v", m)
	}
}

func TestConnHandshake(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ctrl, sw := NewConn(a), NewConn(b)
	done := make(chan error, 1)
	go func() {
		// Switch side: answer the peer HELLO then FEATURES_REQUEST.
		// net.Pipe has no buffering, so read first to avoid a mutual
		// HELLO write deadlock (TCP sockets would buffer these).
		for {
			xid, m, err := sw.Recv()
			if err != nil {
				done <- err
				return
			}
			switch m.(type) {
			case *Hello:
				if _, err := sw.Send(&Hello{}); err != nil {
					done <- err
					return
				}
			case *FeaturesRequest:
				done <- sw.SendXID(xid, &FeaturesReply{DatapathID: 0x99, NumTables: 8})
				return
			default:
				done <- io.ErrUnexpectedEOF
				return
			}
		}
	}()
	fr, err := ctrl.Handshake()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if fr.DatapathID != 0x99 || fr.NumTables != 8 {
		t.Fatalf("features = %+v", fr)
	}
}

func TestMessageTypeString(t *testing.T) {
	if got := TypePacketIn.String(); got != "PACKET_IN" {
		t.Fatalf("String() = %q", got)
	}
	if got := MessageType(99).String(); got != "OFPT(99)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestAllModeledTypesDispatch(t *testing.T) {
	types := []MessageType{
		TypeHello, TypeError, TypeEchoRequest, TypeEchoReply,
		TypeFeaturesRequest, TypeFeaturesReply, TypeGetConfigReq,
		TypeGetConfigReply, TypeSetConfig, TypePacketIn, TypeFlowRemoved,
		TypePortStatus, TypePacketOut, TypeFlowMod, TypeTableMod,
		TypeMultipartReq, TypeMultipartReply,
		TypeBarrierRequest, TypeBarrierReply,
	}
	for _, tt := range types {
		m := newMessage(tt)
		if _, isRaw := m.(*Raw); isRaw {
			t.Errorf("type %v dispatched to Raw", tt)
		}
		if m.Type() != tt {
			t.Errorf("newMessage(%v).Type() = %v", tt, m.Type())
		}
	}
	if _, isRaw := newMessage(TypePortStatus).(*Raw); isRaw {
		t.Error("PORT_STATUS should decode as a typed message")
	}
	if reflect.TypeOf(newMessage(TypeGroupMod)) != reflect.TypeOf(&Raw{}) {
		t.Error("GROUP_MOD should decode as Raw passthrough")
	}
}
