package openflow

import (
	"encoding/binary"
	"fmt"

	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// OXM class and field identifiers (OpenFlow Basic class only).
const (
	oxmClassBasic uint16 = 0x8000

	oxmFieldInPort  uint8 = 0
	oxmFieldEthDst  uint8 = 3
	oxmFieldEthSrc  uint8 = 4
	oxmFieldEthType uint8 = 5
	oxmFieldIPProto uint8 = 10
	oxmFieldIPv4Src uint8 = 11
	oxmFieldIPv4Dst uint8 = 12
	oxmFieldTCPSrc  uint8 = 13
	oxmFieldTCPDst  uint8 = 14
	oxmFieldUDPSrc  uint8 = 15
	oxmFieldUDPDst  uint8 = 16
	oxmFieldARPSPA  uint8 = 22
	oxmFieldARPTPA  uint8 = 23
)

// Match is an OXM flow match. Nil fields are wildcards. It covers the
// fields DFI compiles access-control rules over: ingress port, Ethernet
// addresses and type, IP protocol and addresses, and TCP/UDP ports.
type Match struct {
	InPort  *uint32
	EthSrc  *netpkt.MAC
	EthDst  *netpkt.MAC
	EthType *uint16
	IPProto *uint8
	IPv4Src *netpkt.IPv4
	IPv4Dst *netpkt.IPv4
	TCPSrc  *uint16
	TCPDst  *uint16
	UDPSrc  *uint16
	UDPDst  *uint16
	ARPSPA  *netpkt.IPv4
	ARPTPA  *netpkt.IPv4
}

// U32 returns a pointer to v; a convenience for building matches.
func U32(v uint32) *uint32 { return &v }

// U16 returns a pointer to v; a convenience for building matches.
func U16(v uint16) *uint16 { return &v }

// U8 returns a pointer to v; a convenience for building matches.
func U8(v uint8) *uint8 { return &v }

// MACPtr returns a pointer to m; a convenience for building matches.
func MACPtr(m netpkt.MAC) *netpkt.MAC { return &m }

// IPPtr returns a pointer to ip; a convenience for building matches.
func IPPtr(ip netpkt.IPv4) *netpkt.IPv4 { return &ip }

// String renders the match for logs; wildcarded fields are omitted.
func (m *Match) String() string {
	s := "match{"
	sep := ""
	add := func(format string, args ...any) {
		s += sep + fmt.Sprintf(format, args...)
		sep = ","
	}
	if m.InPort != nil {
		add("in_port=%d", *m.InPort)
	}
	if m.EthSrc != nil {
		add("eth_src=%s", *m.EthSrc)
	}
	if m.EthDst != nil {
		add("eth_dst=%s", *m.EthDst)
	}
	if m.EthType != nil {
		add("eth_type=0x%04x", *m.EthType)
	}
	if m.IPProto != nil {
		add("ip_proto=%d", *m.IPProto)
	}
	if m.IPv4Src != nil {
		add("ipv4_src=%s", *m.IPv4Src)
	}
	if m.IPv4Dst != nil {
		add("ipv4_dst=%s", *m.IPv4Dst)
	}
	if m.TCPSrc != nil {
		add("tcp_src=%d", *m.TCPSrc)
	}
	if m.TCPDst != nil {
		add("tcp_dst=%d", *m.TCPDst)
	}
	if m.UDPSrc != nil {
		add("udp_src=%d", *m.UDPSrc)
	}
	if m.UDPDst != nil {
		add("udp_dst=%d", *m.UDPDst)
	}
	if m.ARPSPA != nil {
		add("arp_spa=%s", *m.ARPSPA)
	}
	if m.ARPTPA != nil {
		add("arp_tpa=%s", *m.ARPTPA)
	}
	return s + "}"
}

// Clone returns a deep copy of the match.
func (m *Match) Clone() *Match {
	c := &Match{}
	if m.InPort != nil {
		c.InPort = U32(*m.InPort)
	}
	if m.EthSrc != nil {
		c.EthSrc = MACPtr(*m.EthSrc)
	}
	if m.EthDst != nil {
		c.EthDst = MACPtr(*m.EthDst)
	}
	if m.EthType != nil {
		c.EthType = U16(*m.EthType)
	}
	if m.IPProto != nil {
		c.IPProto = U8(*m.IPProto)
	}
	if m.IPv4Src != nil {
		c.IPv4Src = IPPtr(*m.IPv4Src)
	}
	if m.IPv4Dst != nil {
		c.IPv4Dst = IPPtr(*m.IPv4Dst)
	}
	if m.TCPSrc != nil {
		c.TCPSrc = U16(*m.TCPSrc)
	}
	if m.TCPDst != nil {
		c.TCPDst = U16(*m.TCPDst)
	}
	if m.UDPSrc != nil {
		c.UDPSrc = U16(*m.UDPSrc)
	}
	if m.UDPDst != nil {
		c.UDPDst = U16(*m.UDPDst)
	}
	if m.ARPSPA != nil {
		c.ARPSPA = IPPtr(*m.ARPSPA)
	}
	if m.ARPTPA != nil {
		c.ARPTPA = IPPtr(*m.ARPTPA)
	}
	return c
}

// NumFields returns the count of non-wildcard fields (used for specificity
// ordering in tests and debugging).
func (m *Match) NumFields() int {
	n := 0
	for _, set := range []bool{
		m.InPort != nil, m.EthSrc != nil, m.EthDst != nil, m.EthType != nil,
		m.IPProto != nil, m.IPv4Src != nil, m.IPv4Dst != nil,
		m.TCPSrc != nil, m.TCPDst != nil, m.UDPSrc != nil, m.UDPDst != nil,
		m.ARPSPA != nil, m.ARPTPA != nil,
	} {
		if set {
			n++
		}
	}
	return n
}

// MatchesKey reports whether a packet with flow key k arriving on inPort
// satisfies every non-wildcard field of the match.
func (m *Match) MatchesKey(k netpkt.FlowKey, inPort uint32) bool {
	if m.InPort != nil && *m.InPort != inPort {
		return false
	}
	if m.EthSrc != nil && *m.EthSrc != k.EthSrc {
		return false
	}
	if m.EthDst != nil && *m.EthDst != k.EthDst {
		return false
	}
	if m.EthType != nil && *m.EthType != k.EtherType {
		return false
	}
	if m.IPProto != nil && (!k.HasIP || k.EtherType != netpkt.EtherTypeIPv4 || *m.IPProto != k.IPProto) {
		return false
	}
	if m.IPv4Src != nil && (!k.HasIP || k.EtherType != netpkt.EtherTypeIPv4 || *m.IPv4Src != k.IPSrc) {
		return false
	}
	if m.IPv4Dst != nil && (!k.HasIP || k.EtherType != netpkt.EtherTypeIPv4 || *m.IPv4Dst != k.IPDst) {
		return false
	}
	if m.TCPSrc != nil && (!k.HasL4 || k.IPProto != netpkt.ProtoTCP || *m.TCPSrc != k.L4Src) {
		return false
	}
	if m.TCPDst != nil && (!k.HasL4 || k.IPProto != netpkt.ProtoTCP || *m.TCPDst != k.L4Dst) {
		return false
	}
	if m.UDPSrc != nil && (!k.HasL4 || k.IPProto != netpkt.ProtoUDP || *m.UDPSrc != k.L4Src) {
		return false
	}
	if m.UDPDst != nil && (!k.HasL4 || k.IPProto != netpkt.ProtoUDP || *m.UDPDst != k.L4Dst) {
		return false
	}
	if m.ARPSPA != nil && (!k.HasIP || k.EtherType != netpkt.EtherTypeARP || *m.ARPSPA != k.IPSrc) {
		return false
	}
	if m.ARPTPA != nil && (!k.HasIP || k.EtherType != netpkt.EtherTypeARP || *m.ARPTPA != k.IPDst) {
		return false
	}
	return true
}

// Covers reports whether m, viewed as a wildcard pattern, covers o: every
// packet matched by o is also matched by m. This is the OpenFlow non-strict
// flow-mod delete/modify semantics — for every field m pins, o must pin the
// same value.
func (m *Match) Covers(o *Match) bool {
	covU32 := func(a, b *uint32) bool { return a == nil || (b != nil && *a == *b) }
	covU16 := func(a, b *uint16) bool { return a == nil || (b != nil && *a == *b) }
	covU8 := func(a, b *uint8) bool { return a == nil || (b != nil && *a == *b) }
	covMAC := func(a, b *netpkt.MAC) bool { return a == nil || (b != nil && *a == *b) }
	covIP := func(a, b *netpkt.IPv4) bool { return a == nil || (b != nil && *a == *b) }
	return covU32(m.InPort, o.InPort) &&
		covMAC(m.EthSrc, o.EthSrc) && covMAC(m.EthDst, o.EthDst) &&
		covU16(m.EthType, o.EthType) && covU8(m.IPProto, o.IPProto) &&
		covIP(m.IPv4Src, o.IPv4Src) && covIP(m.IPv4Dst, o.IPv4Dst) &&
		covU16(m.TCPSrc, o.TCPSrc) && covU16(m.TCPDst, o.TCPDst) &&
		covU16(m.UDPSrc, o.UDPSrc) && covU16(m.UDPDst, o.UDPDst) &&
		covIP(m.ARPSPA, o.ARPSPA) && covIP(m.ARPTPA, o.ARPTPA)
}

// Equal reports whether two matches specify the same fields and values.
func (m *Match) Equal(o *Match) bool {
	eqU32 := func(a, b *uint32) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	eqU16 := func(a, b *uint16) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	eqU8 := func(a, b *uint8) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	eqMAC := func(a, b *netpkt.MAC) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	eqIP := func(a, b *netpkt.IPv4) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	return eqU32(m.InPort, o.InPort) &&
		eqMAC(m.EthSrc, o.EthSrc) && eqMAC(m.EthDst, o.EthDst) &&
		eqU16(m.EthType, o.EthType) && eqU8(m.IPProto, o.IPProto) &&
		eqIP(m.IPv4Src, o.IPv4Src) && eqIP(m.IPv4Dst, o.IPv4Dst) &&
		eqU16(m.TCPSrc, o.TCPSrc) && eqU16(m.TCPDst, o.TCPDst) &&
		eqU16(m.UDPSrc, o.UDPSrc) && eqU16(m.UDPDst, o.UDPDst) &&
		eqIP(m.ARPSPA, o.ARPSPA) && eqIP(m.ARPTPA, o.ARPTPA)
}

// ExactMatchFor builds the most specific match for a packet with flow key k
// received on inPort: every identifier available in the packet is pinned.
// This is how the PCP compiles per-flow access-control rules (paper §III-B).
func ExactMatchFor(k netpkt.FlowKey, inPort uint32) *Match {
	m := &Match{
		InPort:  U32(inPort),
		EthSrc:  MACPtr(k.EthSrc),
		EthDst:  MACPtr(k.EthDst),
		EthType: U16(k.EtherType),
	}
	if k.HasIP && k.EtherType == netpkt.EtherTypeIPv4 {
		m.IPProto = U8(k.IPProto)
		m.IPv4Src = IPPtr(k.IPSrc)
		m.IPv4Dst = IPPtr(k.IPDst)
		if k.HasL4 {
			switch k.IPProto {
			case netpkt.ProtoTCP:
				m.TCPSrc = U16(k.L4Src)
				m.TCPDst = U16(k.L4Dst)
			case netpkt.ProtoUDP:
				m.UDPSrc = U16(k.L4Src)
				m.UDPDst = U16(k.L4Dst)
			}
		}
	}
	if k.HasIP && k.EtherType == netpkt.EtherTypeARP {
		m.ARPSPA = IPPtr(k.IPSrc)
		m.ARPTPA = IPPtr(k.IPDst)
	}
	return m
}

func oxmHeader(field uint8, length int) uint32 {
	return uint32(oxmClassBasic)<<16 | uint32(field&0x7f)<<9 | uint32(length&0xff)
}

// emptyMatch is the all-wildcard ofp_match encoded for messages with a nil
// Match. Shared so hot-path encoders never construct one per message.
var emptyMatch = &Match{}

// matchOrEmpty returns m, or the shared all-wildcard match when m is nil.
func matchOrEmpty(m *Match) *Match {
	if m == nil {
		return emptyMatch
	}
	return m
}

// OXM append helpers: each extends dst through grow and writes the TLV in
// place, so the annotated callers stay allocation-free on reused buffers.

func appendOXMU32(dst []byte, field uint8, v uint32) []byte {
	n := len(dst)
	dst = grow(dst, 8)
	binary.BigEndian.PutUint32(dst[n:n+4], oxmHeader(field, 4))
	binary.BigEndian.PutUint32(dst[n+4:n+8], v)
	return dst
}

func appendOXMU16(dst []byte, field uint8, v uint16) []byte {
	n := len(dst)
	dst = grow(dst, 6)
	binary.BigEndian.PutUint32(dst[n:n+4], oxmHeader(field, 2))
	binary.BigEndian.PutUint16(dst[n+4:n+6], v)
	return dst
}

func appendOXMU8(dst []byte, field uint8, v uint8) []byte {
	n := len(dst)
	dst = grow(dst, 5)
	binary.BigEndian.PutUint32(dst[n:n+4], oxmHeader(field, 1))
	dst[n+4] = v
	return dst
}

func appendOXMMAC(dst []byte, field uint8, v netpkt.MAC) []byte {
	n := len(dst)
	dst = grow(dst, 10)
	binary.BigEndian.PutUint32(dst[n:n+4], oxmHeader(field, 6))
	copy(dst[n+4:n+10], v[:])
	return dst
}

// AppendTo append-encodes the match as an ofp_match (type OFPMT_OXM)
// including trailing padding to 8 bytes, and returns the extended slice.
// With a reused buffer it performs no allocation.
//
//dfi:hotpath
func (m *Match) AppendTo(dst []byte) []byte {
	start := len(dst)
	dst = grow(dst, 4) // type + length, patched below
	if m.InPort != nil {
		dst = appendOXMU32(dst, oxmFieldInPort, *m.InPort)
	}
	if m.EthDst != nil {
		dst = appendOXMMAC(dst, oxmFieldEthDst, *m.EthDst)
	}
	if m.EthSrc != nil {
		dst = appendOXMMAC(dst, oxmFieldEthSrc, *m.EthSrc)
	}
	if m.EthType != nil {
		dst = appendOXMU16(dst, oxmFieldEthType, *m.EthType)
	}
	if m.IPProto != nil {
		dst = appendOXMU8(dst, oxmFieldIPProto, *m.IPProto)
	}
	if m.IPv4Src != nil {
		dst = appendOXMU32(dst, oxmFieldIPv4Src, m.IPv4Src.Uint32())
	}
	if m.IPv4Dst != nil {
		dst = appendOXMU32(dst, oxmFieldIPv4Dst, m.IPv4Dst.Uint32())
	}
	if m.TCPSrc != nil {
		dst = appendOXMU16(dst, oxmFieldTCPSrc, *m.TCPSrc)
	}
	if m.TCPDst != nil {
		dst = appendOXMU16(dst, oxmFieldTCPDst, *m.TCPDst)
	}
	if m.UDPSrc != nil {
		dst = appendOXMU16(dst, oxmFieldUDPSrc, *m.UDPSrc)
	}
	if m.UDPDst != nil {
		dst = appendOXMU16(dst, oxmFieldUDPDst, *m.UDPDst)
	}
	if m.ARPSPA != nil {
		dst = appendOXMU32(dst, oxmFieldARPSPA, m.ARPSPA.Uint32())
	}
	if m.ARPTPA != nil {
		dst = appendOXMU32(dst, oxmFieldARPTPA, m.ARPTPA.Uint32())
	}

	// ofp_match: type, length (covers type+length+oxms, excludes pad).
	unpadded := len(dst) - start
	binary.BigEndian.PutUint16(dst[start:start+2], 1) // OFPMT_OXM
	binary.BigEndian.PutUint16(dst[start+2:start+4], uint16(unpadded))
	padded := (unpadded + 7) / 8 * 8
	return grow(dst, padded-unpadded) // grow zeroes the pad bytes
}

// unmarshalMatch parses an ofp_match at the start of b, returning the match
// and the total padded length consumed.
func unmarshalMatch(b []byte) (*Match, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("match: %w", errTooShort)
	}
	mt := binary.BigEndian.Uint16(b[0:2])
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if mt != 1 {
		return nil, 0, fmt.Errorf("match: unsupported type %d", mt)
	}
	if length < 4 || length > len(b) {
		return nil, 0, fmt.Errorf("match: bad length %d: %w", length, errTooShort)
	}
	padded := (length + 7) / 8 * 8
	if padded > len(b) {
		return nil, 0, fmt.Errorf("match: padding: %w", errTooShort)
	}
	m := &Match{}
	oxms := b[4:length]
	for len(oxms) > 0 {
		if len(oxms) < 4 {
			return nil, 0, fmt.Errorf("match: oxm header: %w", errTooShort)
		}
		hdr := binary.BigEndian.Uint32(oxms[0:4])
		class := uint16(hdr >> 16)
		field := uint8(hdr>>9) & 0x7f
		hasMask := hdr&0x100 != 0
		vlen := int(hdr & 0xff)
		if len(oxms) < 4+vlen {
			return nil, 0, fmt.Errorf("match: oxm value: %w", errTooShort)
		}
		val := oxms[4 : 4+vlen]
		oxms = oxms[4+vlen:]
		if class != oxmClassBasic || hasMask {
			continue // skip unknown classes and masked fields
		}
		if err := m.setOXM(field, val); err != nil {
			return nil, 0, err
		}
	}
	return m, padded, nil
}

func (m *Match) setOXM(field uint8, val []byte) error {
	wrongLen := func(want int) error {
		return fmt.Errorf("match: oxm field %d: want %d bytes, got %d", field, want, len(val))
	}
	switch field {
	case oxmFieldInPort:
		if len(val) != 4 {
			return wrongLen(4)
		}
		m.InPort = U32(binary.BigEndian.Uint32(val))
	case oxmFieldEthDst:
		if len(val) != 6 {
			return wrongLen(6)
		}
		var mac netpkt.MAC
		copy(mac[:], val)
		m.EthDst = &mac
	case oxmFieldEthSrc:
		if len(val) != 6 {
			return wrongLen(6)
		}
		var mac netpkt.MAC
		copy(mac[:], val)
		m.EthSrc = &mac
	case oxmFieldEthType:
		if len(val) != 2 {
			return wrongLen(2)
		}
		m.EthType = U16(binary.BigEndian.Uint16(val))
	case oxmFieldIPProto:
		if len(val) != 1 {
			return wrongLen(1)
		}
		m.IPProto = U8(val[0])
	case oxmFieldIPv4Src:
		if len(val) != 4 {
			return wrongLen(4)
		}
		m.IPv4Src = IPPtr(netpkt.IPv4FromUint32(binary.BigEndian.Uint32(val)))
	case oxmFieldIPv4Dst:
		if len(val) != 4 {
			return wrongLen(4)
		}
		m.IPv4Dst = IPPtr(netpkt.IPv4FromUint32(binary.BigEndian.Uint32(val)))
	case oxmFieldTCPSrc:
		if len(val) != 2 {
			return wrongLen(2)
		}
		m.TCPSrc = U16(binary.BigEndian.Uint16(val))
	case oxmFieldTCPDst:
		if len(val) != 2 {
			return wrongLen(2)
		}
		m.TCPDst = U16(binary.BigEndian.Uint16(val))
	case oxmFieldUDPSrc:
		if len(val) != 2 {
			return wrongLen(2)
		}
		m.UDPSrc = U16(binary.BigEndian.Uint16(val))
	case oxmFieldUDPDst:
		if len(val) != 2 {
			return wrongLen(2)
		}
		m.UDPDst = U16(binary.BigEndian.Uint16(val))
	case oxmFieldARPSPA:
		if len(val) != 4 {
			return wrongLen(4)
		}
		m.ARPSPA = IPPtr(netpkt.IPv4FromUint32(binary.BigEndian.Uint32(val)))
	case oxmFieldARPTPA:
		if len(val) != 4 {
			return wrongLen(4)
		}
		m.ARPTPA = IPPtr(netpkt.IPv4FromUint32(binary.BigEndian.Uint32(val)))
	}
	return nil
}
