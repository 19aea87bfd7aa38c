package rig

import (
	"testing"

	"github.com/dfi-sdn/dfi/benchmark/gen"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

var (
	hostA = gen.Host{Name: "a", User: "ua", IP: netpkt.IPv4{10, 1, 2, 3}, MAC: netpkt.MAC{2, 0xdf, 0, 0, 2, 3}}
	hostB = gen.Host{Name: "b", User: "ub", IP: netpkt.IPv4{10, 1, 9, 8}, MAC: netpkt.MAC{2, 0xdf, 0, 0, 9, 8}}
)

func decode(t *testing.T, frame []byte) (uint32, openflow.Message) {
	t.Helper()
	var f openflow.Frame
	f.SetBytes(frame)
	xid, m, err := f.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return xid, m
}

// TestTemplatesDecode holds the byte-patched frames to the system's own
// decoders: what the emulators send is what a real encoder would.
func TestTemplatesDecode(t *testing.T) {
	for _, payload := range []int{SmallPayload, LargePayload} {
		tmpl, err := newPITemplate(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		frame := tmpl.append([]byte("junk"), 77, 4242, &hostA, &hostB, 1234, 443, TagExpectDeny)[4:]
		xid, m := decode(t, frame)
		pi, ok := m.(*openflow.PacketIn)
		if !ok || xid != 77 || pi.TableID != 1 || pi.InPort() != 4242 || len(pi.Data) != payload {
			t.Fatalf("payload %d: decoded %T xid=%d %+v", payload, m, xid, m)
		}
		key, err := netpkt.ExtractFlowKey(pi.Data)
		want := netpkt.FlowKey{EthSrc: hostA.MAC, EthDst: hostB.MAC, EtherType: netpkt.EtherTypeIPv4,
			HasIP: true, IPSrc: hostA.IP, IPDst: hostB.IP, IPProto: netpkt.ProtoTCP, HasL4: true, L4Src: 1234, L4Dst: 443}
		if err != nil || key != want {
			t.Fatalf("payload %d: flow key %v (%v), want %v", payload, key, err, want)
		}
		tag, data, ok := packetInTag(frame, tmpl.dataOff)
		if !ok || tag != TagExpectDeny || len(data) != payload {
			t.Fatalf("payload %d: tag %d ok=%t len=%d", payload, tag, ok, len(data))
		}
	}
}

func TestParseFlowModAgreesWithCodec(t *testing.T) {
	key := netpkt.FlowKey{EthSrc: hostA.MAC, EthDst: hostB.MAC, EtherType: netpkt.EtherTypeIPv4,
		HasIP: true, IPSrc: hostA.IP, IPDst: hostB.IP, IPProto: netpkt.ProtoTCP, HasL4: true, L4Src: 1234, L4Dst: 443}
	add := &openflow.FlowMod{Cookie: 99, Command: openflow.FlowModAdd, Priority: 100,
		Match:        openflow.ExactMatchFor(key, 7),
		Instructions: []openflow.Instruction{&openflow.InstructionGotoTable{TableID: 1}}}
	frame, err := openflow.Encode(5, add)
	if err != nil {
		t.Fatal(err)
	}
	fm, ok := parseFlowMod(frame)
	if !ok || fm.cookie != 99 || fm.command != openflow.FlowModAdd || fm.tableID != 0 || !fm.hasInstructions {
		t.Fatalf("parsed %+v ok=%t", fm, ok)
	}
	if want := exactMatch(7, &hostA, &hostB, 1234, 443); fm.match != want {
		t.Fatalf("match %+v, want %+v", fm.match, want)
	}
	add.Instructions = nil
	frame, _ = openflow.Encode(5, add)
	if fm, _ := parseFlowMod(frame); fm.hasInstructions {
		t.Error("a deny entry (no instructions) parsed as an allow")
	}

	// Deletes: the emulator's covers must agree with the codec's Covers.
	entry := fm.match
	for name, del := range map[string]*openflow.Match{
		"everything":   {},
		"same source":  {EthType: openflow.U16(netpkt.EtherTypeIPv4), IPv4Src: openflow.IPPtr(hostA.IP)},
		"other source": {EthType: openflow.U16(netpkt.EtherTypeIPv4), IPv4Src: openflow.IPPtr(hostB.IP)},
		"exact":        openflow.ExactMatchFor(key, 7),
		"other port":   openflow.ExactMatchFor(key, 8),
		"udp field":    {UDPDst: openflow.U16(443)},
	} {
		frame, err := openflow.Encode(6, &openflow.FlowMod{Command: openflow.FlowModDelete, Match: del,
			OutPort: openflow.PortAny, OutGroup: openflow.PortAny})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parseFlowMod(frame)
		if !ok || got.command != openflow.FlowModDelete {
			t.Fatalf("%s: parsed %+v ok=%t", name, got, ok)
		}
		if want := del.Covers(add.Match); got.match.covers(&entry) != want {
			t.Errorf("%s: covers=%t, the codec says %t", name, !want, want)
		}
	}
}

func TestRelayReplyDecodes(t *testing.T) {
	r, err := newRelayReply()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, LargePayload)
	payload[0], payload[len(payload)-1] = 0xaa, 0xbb
	out := r.append(nil, 31337, payload)
	var acc openflow.Accumulator
	var got []openflow.Message
	err = acc.Feed(out, func(f *openflow.Frame) error {
		xid, m, err := f.Decode()
		if err != nil {
			return err
		}
		if xid != 31337 {
			t.Errorf("xid %d, want 31337", xid)
		}
		got = append(got, m)
		return nil
	})
	if err != nil || len(got) != 2 || acc.Buffered() != 0 {
		t.Fatalf("fed %d messages, %d bytes left, err %v", len(got), acc.Buffered(), err)
	}
	if fm, ok := got[0].(*openflow.FlowMod); !ok || fm.TableID != 0 || len(fm.Instructions) != 1 {
		t.Errorf("first reply frame: %+v", got[0])
	}
	if po, ok := got[1].(*openflow.PacketOut); !ok || len(po.Data) != LargePayload || po.Data[0] != 0xaa || po.Data[LargePayload-1] != 0xbb {
		t.Errorf("second reply frame: %T", got[1])
	}
}

func TestHistogramQuantile(t *testing.T) {
	before := Metrics{`h_bucket{le="0.001"}`: 10, `h_bucket{le="0.01"}`: 10, `h_bucket{le="+Inf"}`: 10}
	after := Metrics{`h_bucket{le="0.001"}`: 10, `h_bucket{le="0.01"}`: 110, `h_bucket{le="+Inf"}`: 110}
	// 100 observations, all between 1ms and 10ms: the median sits halfway.
	if got := HistogramQuantile(before, after, "h", "", 0.5); got < 0.0054 || got > 0.0056 {
		t.Errorf("median %v, want 0.0055", got)
	}
	if got := HistogramQuantile(after, after, "h", "", 0.5); got != 0 {
		t.Errorf("no observations in between: %v, want 0", got)
	}
}

// exactMatch is the match an exact-match table-0 entry for the flow pins.
func exactMatch(inPort uint32, src, dst *gen.Host, sport, dport uint16) match {
	return match{
		present: 1<<oxmInPort | 1<<oxmEthDst | 1<<oxmEthSrc | 1<<oxmEthType | 1<<oxmIPProto |
			1<<oxmIPv4Src | 1<<oxmIPv4Dst | 1<<oxmTCPSrc | 1<<oxmTCPDst,
		inPort: inPort, ethDst: dst.MAC, ethSrc: src.MAC, ethType: netpkt.EtherTypeIPv4,
		ipProto: netpkt.ProtoTCP, ipSrc: src.IP, ipDst: dst.IP, tcpSrc: sport, tcpDst: dport,
	}
}
