package openflow

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// fuzzSeedMessages returns one representative instance per modeled message
// type, so the fuzzers start from structurally valid encodings.
func fuzzSeedMessages() []Message {
	match := &Match{
		InPort:  U32(3),
		EthType: U16(netpkt.EtherTypeIPv4),
		IPProto: U8(netpkt.ProtoTCP),
		IPv4Src: IPPtr(netpkt.IPv4{10, 0, 0, 1}),
		IPv4Dst: IPPtr(netpkt.IPv4{10, 0, 0, 2}),
		TCPSrc:  U16(44123),
		TCPDst:  U16(443),
	}
	actions := []Action{&ActionOutput{Port: 7, MaxLen: ControllerMaxLen}}
	return []Message{
		&Hello{},
		&Hello{Elements: []byte{0, 1, 0, 8, 0, 0, 0, 0x10}},
		&Error{ErrType: 1, Code: 9, Data: []byte("bad request")},
		&EchoRequest{Data: []byte("ping")},
		&EchoReply{Data: []byte("pong")},
		&FeaturesRequest{},
		&FeaturesReply{DatapathID: 0x00204afe12345678, NumBuffers: 256, NumTables: 254},
		&GetConfigRequest{},
		&GetConfigReply{Flags: 0, MissSendLen: 0xffff},
		&SetConfig{MissSendLen: 128},
		&PacketIn{BufferID: NoBuffer, Reason: 1, TableID: 0, Cookie: 42,
			Match: &Match{InPort: U32(3)}, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		&PacketOut{BufferID: NoBuffer, InPort: PortController, Actions: actions,
			Data: []byte{0xca, 0xfe}},
		&FlowMod{Cookie: 7, TableID: 1, Command: 0, IdleTimeout: 30, Priority: 100,
			BufferID: NoBuffer, OutPort: PortAny, OutGroup: PortAny, Match: match,
			Instructions: []Instruction{
				&InstructionApplyActions{Actions: actions},
				&InstructionGotoTable{TableID: 2},
			}},
		&FlowRemoved{Cookie: 7, Priority: 100, Reason: 0, TableID: 1,
			DurationSec: 10, PacketCount: 5, ByteCount: 500, Match: match},
		&PortStatus{Reason: 2},
		&TableMod{TableID: 1, Config: 3},
		&MultipartRequest{PartType: MultipartFlow, Flow: &FlowStatsRequest{
			TableID: AllTables, OutPort: PortAny, OutGroup: PortAny, Match: match}},
		&MultipartReply{PartType: MultipartFlow, Flows: []*FlowStatsEntry{{
			TableID: 1, DurationSec: 10, Priority: 100, Cookie: 7,
			PacketCount: 5, ByteCount: 500, Match: match,
			Instructions: []Instruction{&InstructionApplyActions{Actions: actions}},
		}}},
		&BarrierRequest{},
		&BarrierReply{},
		&Raw{RawType: TypeExperimenter, Body: []byte{0, 0, 0, 1, 0, 0, 0, 2}},
	}
}

// FuzzReadMessage feeds arbitrary byte streams through the full
// decode→encode→decode→encode cycle. The first decode may canonicalize
// (unknown OXMs are dropped, lengths are recomputed), but after that the
// representation must be a fixed point: the second and later round trips
// must be byte-identical, or the proxy would corrupt messages it relays.
func FuzzReadMessage(f *testing.F) {
	for i, m := range fuzzSeedMessages() {
		b, err := Encode(uint32(i+1), m)
		if err != nil {
			f.Fatalf("encoding seed %T: %v", m, err)
		}
		f.Add(b)
	}
	f.Add([]byte{Version, 0xff, 0, 8, 0, 0, 0, 1})    // unknown type → Raw
	f.Add([]byte{Version, 0, 0, 7, 0, 0, 0, 1})       // length < header
	f.Add([]byte{Version, 0, 0xff, 0xff, 0, 0, 0, 1}) // longest length, no body
	f.Fuzz(func(t *testing.T, data []byte) {
		xid, m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		e1, err := Encode(xid, m)
		if err != nil {
			// Re-encoding may legitimately exceed MaxMessageLen when the
			// canonical form pads a match the input packed tightly.
			if strings.Contains(err.Error(), "exceeds max") {
				return
			}
			t.Fatalf("decoded %v does not re-encode: %v", m.Type(), err)
		}
		xid2, m2, err := ReadMessage(bytes.NewReader(e1))
		if err != nil {
			t.Fatalf("canonical encoding of %v does not decode: %v\n%x", m.Type(), err, e1)
		}
		if xid2 != xid {
			t.Fatalf("xid changed across round trip: %d != %d", xid2, xid)
		}
		e2, err := Encode(xid2, m2)
		if err != nil {
			t.Fatalf("re-decoded %v does not re-encode: %v", m2.Type(), err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("%v round trip is not a fixed point:\n first %x\nsecond %x", m.Type(), e1, e2)
		}
	})
}

// FuzzUnmarshalBody drives every concrete message type's body parser over
// arbitrary bytes, bypassing the header so the fuzzer spends its budget on
// the per-type decoders. Accepted bodies must re-encode to a stable form.
func FuzzUnmarshalBody(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		body, err := m.AppendBody(nil)
		if err != nil {
			f.Fatalf("encoding seed %T: %v", m, err)
		}
		f.Add(uint8(m.Type()), body)
	}
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		m := newMessage(MessageType(typ % (uint8(TypeBarrierReply) + 1)))
		if err := m.UnmarshalBody(body); err != nil {
			return
		}
		canon, err := m.AppendBody(nil)
		if err != nil {
			t.Fatalf("accepted %v body does not encode: %v\n%x", m.Type(), err, body)
		}
		m2 := newMessage(m.Type())
		if err := m2.UnmarshalBody(canon); err != nil {
			t.Fatalf("canonical %v body does not parse: %v\n%x", m.Type(), err, canon)
		}
		// Re-encode onto a dirty prefix: the encoder must only append, and
		// must not lean on fresh-allocation zeroing for pads.
		dirty := bytes.Repeat([]byte{0xff}, len(canon)+16)
		canon2, err := m2.AppendBody(dirty[:3])
		if err != nil {
			t.Fatalf("re-parsed %v body does not encode: %v", m.Type(), err)
		}
		if !bytes.Equal(canon, canon2[3:]) {
			t.Fatalf("%v body encoding is not a fixed point:\n first %x\nsecond %x", m.Type(), canon, canon2[3:])
		}
		// The whole message either carries its exact byte length in the
		// header or is refused as too long for the 16-bit field.
		wire, err := Encode(1, m2)
		switch {
		case headerLen+len(canon) > MaxMessageLen:
			if err == nil {
				t.Fatalf("%v message of %d bytes encoded", m.Type(), headerLen+len(canon))
			}
		case err != nil:
			t.Fatalf("re-parsed %v message does not encode: %v", m.Type(), err)
		case int(binary.BigEndian.Uint16(wire[2:4])) != len(wire):
			t.Fatalf("%v header length %d, encoded %d bytes", m.Type(), binary.BigEndian.Uint16(wire[2:4]), len(wire))
		}
	})
}

// frameRewrites are the relay's in-place rewrites, one per relayed type,
// each with the decoded-form effect it must have on an accepted frame.
var frameRewrites = []struct {
	typ     MessageType
	rewrite func(*Frame) bool
	shift   func(Message)
}{
	{TypeFlowMod, func(f *Frame) bool { return f.ShiftFlowModTables(+1) }, func(m Message) {
		fm := m.(*FlowMod)
		if fm.TableID != AllTables {
			fm.TableID = shiftTableID(fm.TableID, +1)
		}
		for _, in := range fm.Instructions {
			if gt, ok := in.(*InstructionGotoTable); ok {
				gt.TableID = shiftTableID(gt.TableID, +1)
			}
		}
	}},
	{TypeTableMod, func(f *Frame) bool { return f.ShiftTableModTable(+1) }, func(m Message) {
		if tm := m.(*TableMod); tm.TableID != AllTables {
			tm.TableID = shiftTableID(tm.TableID, +1)
		}
	}},
	{TypeFlowRemoved, func(f *Frame) bool { return f.ShiftFlowRemovedTable(-1) }, func(m Message) {
		fr := m.(*FlowRemoved)
		fr.TableID = shiftTableID(fr.TableID, -1)
	}},
	{TypePacketIn, func(f *Frame) bool { return f.ShiftPacketInTable(-1) }, func(m Message) {
		pi := m.(*PacketIn)
		pi.TableID = shiftTableID(pi.TableID, -1)
	}},
}

// FuzzFrameRewriteAgreesWithDecode holds the relay's in-place rewrites to
// the decoder. The relay fails the connection when a walker rejects a
// frame, so a frame a walker rejects must be one Decode rejects too;
// otherwise the relay would drop a message the decoder calls valid. A
// rejected frame must be left unmodified, and an accepted frame that
// decodes must decode, after the rewrite, to the same message with only
// its table references shifted.
func FuzzFrameRewriteAgreesWithDecode(f *testing.F) {
	seed := func(m Message) {
		body, err := m.AppendBody(nil)
		if err != nil {
			f.Fatal(err)
		}
		for i, rw := range frameRewrites {
			if m.Type() == rw.typ {
				f.Add(uint8(i), body)
			}
		}
	}
	for _, m := range fuzzSeedMessages() {
		seed(m)
	}
	// The smallest valid body of each type.
	for _, m := range []Message{&FlowMod{}, &TableMod{}, &FlowRemoved{TableID: 2}, &PacketIn{TableID: 1}} {
		seed(m)
	}
	f.Add(uint8(0), make([]byte, 44)) // flow-mod, match type 0
	f.Add(uint8(2), make([]byte, 12)) // flow-removed, short
	f.Add(uint8(3), make([]byte, 8))  // packet-in, short
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		if headerLen+len(body) > MaxMessageLen {
			return
		}
		rw := frameRewrites[int(sel)%len(frameRewrites)]
		wire := make([]byte, headerLen, headerLen+len(body))
		wire[0] = Version
		wire[1] = uint8(rw.typ)
		binary.BigEndian.PutUint16(wire[2:4], uint16(headerLen+len(body)))
		binary.BigEndian.PutUint32(wire[4:8], 7)
		wire = append(wire, body...)

		var fr Frame
		fr.SetBytes(wire)
		_, before, decErr := fr.Decode()
		if !rw.rewrite(&fr) {
			if decErr == nil {
				t.Fatalf("%v walker rejects a frame Decode accepts:\n%x", rw.typ, wire)
			}
			if !bytes.Equal(fr.Bytes(), wire) {
				t.Fatalf("%v walker modified a frame it rejected", rw.typ)
			}
			return
		}
		if decErr != nil {
			return // forwarded verbatim today: not the walker's to judge
		}
		_, after, err := fr.Decode()
		if err != nil {
			t.Fatalf("%v rewrite broke a decodable frame: %v\n%x", rw.typ, err, wire)
		}
		rw.shift(before)
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%v rewrite disagrees with the decoded shift:\n got %+v\nwant %+v", rw.typ, after, before)
		}
	})
}
