package openflow

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// randomMatch builds a match with a random subset of fields set.
func randomMatch(rng *rand.Rand) *Match {
	m := &Match{}
	if rng.Intn(2) == 0 {
		m.InPort = U32(rng.Uint32() % 1000)
	}
	if rng.Intn(2) == 0 {
		m.EthSrc = MACPtr(randomMAC(rng))
	}
	if rng.Intn(2) == 0 {
		m.EthDst = MACPtr(randomMAC(rng))
	}
	switch rng.Intn(3) {
	case 0:
		m.EthType = U16(netpkt.EtherTypeIPv4)
		if rng.Intn(2) == 0 {
			m.IPv4Src = IPPtr(netpkt.IPv4FromUint32(rng.Uint32()))
		}
		if rng.Intn(2) == 0 {
			m.IPv4Dst = IPPtr(netpkt.IPv4FromUint32(rng.Uint32()))
		}
		switch rng.Intn(3) {
		case 0:
			m.IPProto = U8(netpkt.ProtoTCP)
			if rng.Intn(2) == 0 {
				m.TCPSrc = U16(uint16(rng.Uint32()))
			}
			if rng.Intn(2) == 0 {
				m.TCPDst = U16(uint16(rng.Uint32()))
			}
		case 1:
			m.IPProto = U8(netpkt.ProtoUDP)
			if rng.Intn(2) == 0 {
				m.UDPSrc = U16(uint16(rng.Uint32()))
			}
			if rng.Intn(2) == 0 {
				m.UDPDst = U16(uint16(rng.Uint32()))
			}
		}
	case 1:
		m.EthType = U16(netpkt.EtherTypeARP)
		if rng.Intn(2) == 0 {
			m.ARPSPA = IPPtr(netpkt.IPv4FromUint32(rng.Uint32()))
		}
		if rng.Intn(2) == 0 {
			m.ARPTPA = IPPtr(netpkt.IPv4FromUint32(rng.Uint32()))
		}
	}
	return m
}

func randomMAC(rng *rand.Rand) netpkt.MAC {
	var m netpkt.MAC
	for i := range m {
		m[i] = byte(rng.Intn(256))
	}
	return m
}

func TestPropertyMatchMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		m := randomMatch(rng)
		b := m.AppendTo(nil)
		if len(b)%8 != 0 {
			t.Fatalf("match %v marshals to %d bytes (not 8-aligned)", m, len(b))
		}
		got, n, err := unmarshalMatch(b)
		if err != nil {
			t.Fatalf("match %v: %v", m, err)
		}
		if n != len(b) {
			t.Fatalf("match %v: consumed %d of %d", m, n, len(b))
		}
		if !got.Equal(m) {
			t.Fatalf("round trip: %v != %v", got, m)
		}
		// Re-marshal must be byte-identical (stable encoding).
		if !bytes.Equal(got.AppendTo(nil), b) {
			t.Fatalf("unstable encoding for %v", m)
		}
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		m := randomMatch(rng)
		c := m.Clone()
		if !c.Equal(m) || !m.Equal(c) {
			t.Fatalf("clone not equal: %v vs %v", m, c)
		}
		if m.NumFields() != c.NumFields() {
			t.Fatalf("clone field count differs")
		}
	}
}

func TestPropertyCoversReflexiveAndWildcard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wildcard := &Match{}
	for i := 0; i < 1000; i++ {
		m := randomMatch(rng)
		if !m.Covers(m) {
			t.Fatalf("Covers not reflexive for %v", m)
		}
		if !wildcard.Covers(m) {
			t.Fatalf("wildcard does not cover %v", m)
		}
		if m.NumFields() > 0 && m.Covers(wildcard) {
			t.Fatalf("%v covers the wildcard", m)
		}
	}
}

// randomFrame builds a frame and returns it with its flow key.
func randomFrame(rng *rand.Rand) (netpkt.FlowKey, uint32) {
	srcMAC, dstMAC := randomMAC(rng), randomMAC(rng)
	srcIP := netpkt.IPv4FromUint32(rng.Uint32())
	dstIP := netpkt.IPv4FromUint32(rng.Uint32())
	inPort := rng.Uint32()%48 + 1
	var frame []byte
	switch rng.Intn(3) {
	case 0:
		frame = netpkt.BuildTCP(srcMAC, dstMAC, srcIP, dstIP, &netpkt.TCPSegment{
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Flags: netpkt.TCPSyn})
	case 1:
		frame = netpkt.BuildUDP(srcMAC, dstMAC, srcIP, dstIP, &netpkt.UDPDatagram{
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32())})
	default:
		frame = netpkt.BuildICMP(srcMAC, dstMAC, srcIP, dstIP, &netpkt.ICMPMessage{Type: netpkt.ICMPEchoRequest})
	}
	key, err := netpkt.ExtractFlowKey(frame)
	if err != nil {
		panic(err)
	}
	return key, inPort
}

// TestPropertyExactMatchCoherence: for random packets, the exact match
// built from a packet matches that packet, and any match that covers the
// exact match also matches the packet.
func TestPropertyExactMatchCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		key, inPort := randomFrame(rng)
		exact := ExactMatchFor(key, inPort)
		if !exact.MatchesKey(key, inPort) {
			t.Fatalf("exact match does not match its own packet: %v vs %v", exact, key)
		}
		// Build a widened pattern by dropping a random subset of fields.
		widened := exact.Clone()
		if rng.Intn(2) == 0 {
			widened.TCPSrc, widened.TCPDst = nil, nil
			widened.UDPSrc, widened.UDPDst = nil, nil
		}
		if rng.Intn(2) == 0 {
			widened.IPv4Src, widened.IPv4Dst = nil, nil
		}
		if rng.Intn(2) == 0 {
			widened.InPort = nil
		}
		if !widened.Covers(exact) {
			t.Fatalf("widened %v does not cover exact %v", widened, exact)
		}
		if !widened.MatchesKey(key, inPort) {
			t.Fatalf("widened %v does not match packet %v", widened, key)
		}
	}
}

// TestPropertyCoversImpliesMatches: if A covers B and a packet matches B,
// the packet matches A — the property the switch's delete/modify semantics
// and the PCP's widening safety both rely on.
func TestPropertyCoversImpliesMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for i := 0; i < 20000 && checked < 2000; i++ {
		key, inPort := randomFrame(rng)
		b := ExactMatchFor(key, inPort)
		a := randomMatch(rng)
		if !a.Covers(b) {
			continue
		}
		checked++
		if !a.MatchesKey(key, inPort) {
			t.Fatalf("a=%v covers b=%v but does not match b's packet %v", a, b, key)
		}
	}
	if checked == 0 {
		t.Fatal("no covering pairs generated")
	}
}

func TestPropertyEncodeDecodeAllMessageTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mkMatch := func() *Match { return randomMatch(rng) }
	for i := 0; i < 500; i++ {
		msgs := []Message{
			&Hello{},
			&EchoRequest{Data: randomBytes(rng, 16)},
			&Error{ErrType: uint16(rng.Uint32()), Code: uint16(rng.Uint32()), Data: randomBytes(rng, 8)},
			&FeaturesReply{DatapathID: rng.Uint64(), NumBuffers: rng.Uint32(), NumTables: uint8(rng.Uint32())},
			&PacketIn{BufferID: NoBuffer, Reason: uint8(rng.Intn(2)), TableID: uint8(rng.Intn(4)),
				Cookie: rng.Uint64(), Match: mkMatch(), Data: randomBytes(rng, 64)},
			&FlowMod{Cookie: rng.Uint64(), TableID: uint8(rng.Intn(4)), Command: uint8(rng.Intn(5)),
				Priority: uint16(rng.Uint32()), BufferID: NoBuffer, Match: mkMatch()},
			&FlowRemoved{Cookie: rng.Uint64(), Priority: uint16(rng.Uint32()),
				Reason: uint8(rng.Intn(3)), Match: mkMatch()},
			&PacketOut{BufferID: NoBuffer, InPort: rng.Uint32(),
				Actions: []Action{&ActionOutput{Port: rng.Uint32()}}, Data: randomBytes(rng, 32)},
		}
		for _, msg := range msgs {
			xid := rng.Uint32()
			b, err := Encode(xid, msg)
			if err != nil {
				t.Fatalf("%v: %v", msg.Type(), err)
			}
			gotXID, got, err := ReadMessage(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%v: decode: %v", msg.Type(), err)
			}
			if gotXID != xid || got.Type() != msg.Type() {
				t.Fatalf("%v: xid/type mismatch", msg.Type())
			}
			// Decode→re-encode is stable.
			b2, err := Encode(xid, got)
			if err != nil {
				t.Fatalf("%v: re-encode: %v", msg.Type(), err)
			}
			if !bytes.Equal(b, b2) {
				t.Fatalf("%v: unstable encoding\n% x\n% x", msg.Type(), b, b2)
			}
		}
	}
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, rng.Intn(n+1))
	rng.Read(b)
	return b
}

// TestPropertyDecoderRejectsGarbage: random bodies either decode cleanly
// or error, but never panic.
func TestPropertyDecoderNeverPanics(t *testing.T) {
	f := func(typeByte uint8, body []byte) bool {
		if len(body) > 1024 {
			body = body[:1024]
		}
		hdr := make([]byte, 8+len(body))
		hdr[0] = Version
		hdr[1] = typeByte % 22
		hdr[2] = byte((8 + len(body)) >> 8)
		hdr[3] = byte(8 + len(body))
		_, _, _ = ReadMessage(bytes.NewReader(hdr))
		return true
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuickMatchValues(t *testing.T) {
	// quick-generated value structs survive pointerization and equality.
	f := func(inPort uint32, ethType uint16, proto uint8) bool {
		m := &Match{InPort: U32(inPort), EthType: U16(ethType), IPProto: U8(proto)}
		got, _, err := unmarshalMatch(m.AppendTo(nil))
		if err != nil {
			return false
		}
		return got.Equal(m) && reflect.DeepEqual(*got.InPort, inPort)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
