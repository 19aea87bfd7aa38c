// Package rig holds the benchmark's side of every socket dfid opens: the
// switch emulators, the controller stub, the sensor and admin clients, the
// dfid subprocess itself and the pacing and polling they share. Nothing in
// it selects how dfid relays or looks up policy.
package rig

import (
	"encoding/binary"
	"fmt"

	"github.com/dfi-sdn/dfi/benchmark/gen"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

// The load generators share two cores with dfid, so the per-frame work on
// the hot sockets is byte patching and TLV walking over pre-encoded
// templates. Every template is produced by the openflow and netpkt encoders
// once, and TestTemplatesDecode holds the patched frames to their decoders.

const (
	ofHeaderLen = 8
	// Offsets inside an Ethernet/IPv4/TCP frame without options.
	offEthDst  = 0
	offEthSrc  = 6
	offIPSrc   = 26
	offIPDst   = 30
	offTCPSrc  = 34
	offTCPDst  = 36
	offTCPSeq  = 38
	offTCPAck  = 42
	tcpFrameHL = 54

	// SmallPayload and LargePayload are the two packet sizes the workloads
	// carry inside packet-ins: a minimum-size Ethernet frame and a full one.
	SmallPayload = 64
	LargePayload = 1500
)

// Tag travels in the TCP acknowledgement field of every generated packet.
// The system under test never reads it; the controller stub does, so it can
// check a packet-in against the oracle's verdict without a lookup.
type Tag uint32

const (
	TagExpectAllow Tag = 1
	TagExpectDeny  Tag = 2
	TagRelay       Tag = 3
)

// piTemplate is a pre-encoded packet-in carrying a TCP packet.
type piTemplate struct {
	frame   []byte
	dataOff int
	portOff int
}

func newPITemplate(tableID uint8, payload int) (*piTemplate, error) {
	if payload < tcpFrameHL {
		return nil, fmt.Errorf("rig: payload %d shorter than the headers", payload)
	}
	data := netpkt.BuildTCP(netpkt.MAC{}, netpkt.MAC{}, netpkt.IPv4{}, netpkt.IPv4{},
		&netpkt.TCPSegment{Flags: netpkt.TCPSyn, Payload: make([]byte, payload-tcpFrameHL)})
	frame, err := openflow.Encode(0, &openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		Reason:   openflow.PacketInReasonNoMatch,
		TableID:  tableID,
		Match:    &openflow.Match{InPort: openflow.U32(0)},
		Data:     data,
	})
	if err != nil {
		return nil, err
	}
	// header, fixed packet-in fields, match header, OXM header, then the
	// 4-byte in-port value.
	return &piTemplate{frame: frame, dataOff: len(frame) - len(data), portOff: ofHeaderLen + 16 + 4 + 4}, nil
}

// append writes one packet-in for the flow src→dst to dst.
func (t *piTemplate) append(out []byte, xid, inPort uint32, src, dst *gen.Host, sport, dport uint16, tag Tag) []byte {
	n := len(out)
	out = append(out, t.frame...)
	f := out[n:]
	binary.BigEndian.PutUint32(f[4:8], xid)
	binary.BigEndian.PutUint32(f[t.portOff:], inPort)
	d := f[t.dataOff:]
	copy(d[offEthDst:], dst.MAC[:])
	copy(d[offEthSrc:], src.MAC[:])
	copy(d[offIPSrc:], src.IP[:])
	copy(d[offIPDst:], dst.IP[:])
	binary.BigEndian.PutUint16(d[offTCPSrc:], sport)
	binary.BigEndian.PutUint16(d[offTCPDst:], dport)
	binary.BigEndian.PutUint32(d[offTCPSeq:], xid)
	binary.BigEndian.PutUint32(d[offTCPAck:], uint32(tag))
	return out
}

// packetInTag reads the tag and payload of a packet-in frame built from a
// piTemplate (the proxy re-encodes admitted packet-ins byte for byte).
func packetInTag(frame []byte, dataOff int) (Tag, []byte, bool) {
	if len(frame) < dataOff+tcpFrameHL {
		return 0, nil, false
	}
	d := frame[dataOff:]
	return Tag(binary.BigEndian.Uint32(d[offTCPAck:])), d, true
}

// OXM field numbers of the OpenFlow basic class (OpenFlow 1.3.5 §7.2.3.7).
const (
	oxmInPort  = 0
	oxmEthDst  = 3
	oxmEthSrc  = 4
	oxmEthType = 5
	oxmIPProto = 10
	oxmIPv4Src = 11
	oxmIPv4Dst = 12
	oxmTCPSrc  = 13
	oxmTCPDst  = 14
)

// match is the subset of an OXM match the emulated flows can pin. A match
// naming any other field sets other: no TCP entry pins such a field, so a
// delete carrying one covers none of them.
type match struct {
	present uint16
	other   bool
	inPort  uint32
	ethDst  [6]byte
	ethSrc  [6]byte
	ethType uint16
	ipProto uint8
	ipSrc   [4]byte
	ipDst   [4]byte
	tcpSrc  uint16
	tcpDst  uint16
}

func (m *match) has(field uint) bool { return m.present&(1<<field) != 0 }

// covers is OpenFlow's non-strict delete rule: every field m pins, o pins
// to the same value.
func (m *match) covers(o *match) bool {
	if m.other || m.present&^o.present != 0 {
		return false
	}
	return (!m.has(oxmInPort) || m.inPort == o.inPort) &&
		(!m.has(oxmEthDst) || m.ethDst == o.ethDst) &&
		(!m.has(oxmEthSrc) || m.ethSrc == o.ethSrc) &&
		(!m.has(oxmEthType) || m.ethType == o.ethType) &&
		(!m.has(oxmIPProto) || m.ipProto == o.ipProto) &&
		(!m.has(oxmIPv4Src) || m.ipSrc == o.ipSrc) &&
		(!m.has(oxmIPv4Dst) || m.ipDst == o.ipDst) &&
		(!m.has(oxmTCPSrc) || m.tcpSrc == o.tcpSrc) &&
		(!m.has(oxmTCPDst) || m.tcpDst == o.tcpDst)
}

// flowMod is what the emulators need of a flow-mod frame.
type flowMod struct {
	cookie, cookieMask uint64
	tableID, command   uint8
	hasInstructions    bool
	match              match
}

// parseFlowMod walks a flow-mod frame without allocating.
func parseFlowMod(frame []byte) (fm flowMod, ok bool) {
	const fixed = 40
	b := frame[ofHeaderLen:]
	if len(b) < fixed+4 {
		return fm, false
	}
	fm.cookie = binary.BigEndian.Uint64(b[0:8])
	fm.cookieMask = binary.BigEndian.Uint64(b[8:16])
	fm.tableID, fm.command = b[16], b[17]
	mlen := int(binary.BigEndian.Uint16(b[fixed+2:]))
	padded := (mlen + 7) / 8 * 8
	if mlen < 4 || fixed+padded > len(b) {
		return fm, false
	}
	fm.hasInstructions = len(b) > fixed+padded
	m := &fm.match
	for tlv := b[fixed+4 : fixed+mlen]; len(tlv) >= 4; {
		hdr := binary.BigEndian.Uint32(tlv)
		field, n := uint(hdr>>9)&0x7f, int(hdr&0xff)
		if len(tlv) < 4+n {
			return fm, false
		}
		v := tlv[4 : 4+n]
		switch {
		case hdr>>16 != 0x8000 || hdr&0x100 != 0:
			m.other = true
		case field == oxmInPort && n == 4:
			m.inPort = binary.BigEndian.Uint32(v)
		case field == oxmEthDst && n == 6:
			copy(m.ethDst[:], v)
		case field == oxmEthSrc && n == 6:
			copy(m.ethSrc[:], v)
		case field == oxmEthType && n == 2:
			m.ethType = binary.BigEndian.Uint16(v)
		case field == oxmIPProto && n == 1:
			m.ipProto = v[0]
		case field == oxmIPv4Src && n == 4:
			copy(m.ipSrc[:], v)
		case field == oxmIPv4Dst && n == 4:
			copy(m.ipDst[:], v)
		case field == oxmTCPSrc && n == 2:
			m.tcpSrc = binary.BigEndian.Uint16(v)
		case field == oxmTCPDst && n == 2:
			m.tcpDst = binary.BigEndian.Uint16(v)
		default:
			m.other = true
		}
		if !m.other && field < 16 {
			m.present |= 1 << field
		}
		tlv = tlv[4+n:]
	}
	return fm, true
}

// relayReply is the controller stub's answer to one relayed packet-in: a
// flow-mod for the controller's first table and a packet-out returning the
// payload, both under the packet-in's transaction id.
type relayReply struct {
	flowMod   []byte
	packetOut []byte // header and action list; the payload follows
}

func newRelayReply() (*relayReply, error) {
	out := []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: openflow.ControllerMaxLen}}
	fm, err := openflow.Encode(0, &openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 10, IdleTimeout: 60,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.PortAny,
		Match:        &openflow.Match{InPort: openflow.U32(1), EthDst: openflow.MACPtr(netpkt.MAC{2, 0, 0, 0, 0, 1})},
		Instructions: []openflow.Instruction{&openflow.InstructionApplyActions{Actions: out}},
	})
	if err != nil {
		return nil, err
	}
	po, err := openflow.Encode(0, &openflow.PacketOut{BufferID: openflow.NoBuffer, InPort: 1, Actions: out})
	if err != nil {
		return nil, err
	}
	return &relayReply{flowMod: fm, packetOut: po}, nil
}

// append writes the two reply frames for transaction xid.
func (r *relayReply) append(out []byte, xid uint32, payload []byte) []byte {
	n := len(out)
	out = append(out, r.flowMod...)
	binary.BigEndian.PutUint32(out[n+4:], xid)
	n = len(out)
	out = append(out, r.packetOut...)
	out = append(out, payload...)
	binary.BigEndian.PutUint16(out[n+2:], uint16(len(out)-n))
	binary.BigEndian.PutUint32(out[n+4:], xid)
	return out
}
