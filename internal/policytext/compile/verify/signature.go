package verify

import (
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// A rule's signature is its match identity under the exact-value field
// model: the set of fields it constrains (fieldMask) and one value per
// constrained field (tupleKey). With exact-value fields only, rule A's
// match set contains rule B's iff A constrains a subset of B's fields
// (subsetOf) and B's values projected onto A's fields (project) equal A's
// key.

// fieldMask identifies which fields a rule constrains.
type fieldMask uint32

const (
	maskEtherType fieldMask = 1 << iota
	maskIPProto
	maskSrcUser
	maskSrcHost
	maskSrcIP
	maskSrcPort
	maskSrcMAC
	maskSrcSwitchPort
	maskSrcDPID
	maskDstUser
	maskDstHost
	maskDstIP
	maskDstPort
	maskDstMAC
	maskDstSwitchPort
	maskDstDPID
)

// tupleKey holds one exact value per constrainable field; slots outside a
// rule's mask stay zero, so two rules constraining the same fields to the
// same values have equal keys.
type tupleKey struct {
	etherType     uint16
	ipProto       uint8
	srcUser       string
	srcHost       string
	srcIP         netpkt.IPv4
	srcPort       uint16
	srcMAC        netpkt.MAC
	srcSwitchPort uint32
	srcDPID       uint64
	dstUser       string
	dstHost       string
	dstIP         netpkt.IPv4
	dstPort       uint16
	dstMAC        netpkt.MAC
	dstSwitchPort uint32
	dstDPID       uint64
}

// ruleKey computes a rule's signature: the fields it constrains and their
// values.
func ruleKey(r *policy.Rule) (fieldMask, tupleKey) {
	var m fieldMask
	var k tupleKey
	if r.Props.EtherType != nil {
		m |= maskEtherType
		k.etherType = *r.Props.EtherType
	}
	if r.Props.IPProto != nil {
		m |= maskIPProto
		k.ipProto = *r.Props.IPProto
	}
	if r.Src.User != "" {
		m |= maskSrcUser
		k.srcUser = r.Src.User
	}
	if r.Src.Host != "" {
		m |= maskSrcHost
		k.srcHost = r.Src.Host
	}
	if r.Src.IP != nil {
		m |= maskSrcIP
		k.srcIP = *r.Src.IP
	}
	if r.Src.Port != nil {
		m |= maskSrcPort
		k.srcPort = *r.Src.Port
	}
	if r.Src.MAC != nil {
		m |= maskSrcMAC
		k.srcMAC = *r.Src.MAC
	}
	if r.Src.SwitchPort != nil {
		m |= maskSrcSwitchPort
		k.srcSwitchPort = *r.Src.SwitchPort
	}
	if r.Src.DPID != nil {
		m |= maskSrcDPID
		k.srcDPID = *r.Src.DPID
	}
	if r.Dst.User != "" {
		m |= maskDstUser
		k.dstUser = r.Dst.User
	}
	if r.Dst.Host != "" {
		m |= maskDstHost
		k.dstHost = r.Dst.Host
	}
	if r.Dst.IP != nil {
		m |= maskDstIP
		k.dstIP = *r.Dst.IP
	}
	if r.Dst.Port != nil {
		m |= maskDstPort
		k.dstPort = *r.Dst.Port
	}
	if r.Dst.MAC != nil {
		m |= maskDstMAC
		k.dstMAC = *r.Dst.MAC
	}
	if r.Dst.SwitchPort != nil {
		m |= maskDstSwitchPort
		k.dstSwitchPort = *r.Dst.SwitchPort
	}
	if r.Dst.DPID != nil {
		m |= maskDstDPID
		k.dstDPID = *r.Dst.DPID
	}
	return m, k
}

// subsetOf reports whether every field in m is also in o.
func (m fieldMask) subsetOf(o fieldMask) bool {
	return m&^o == 0
}

// project returns the values of a rule with signature (m, k) restricted
// to the fields in onto, reporting false when the rule does not constrain
// every field of onto. A true result equal to another rule's key over the
// same mask means that rule matches every flow this one matches
// (field-wise containment).
func project(m fieldMask, k tupleKey, onto fieldMask) (tupleKey, bool) {
	if !onto.subsetOf(m) {
		return tupleKey{}, false
	}
	// Zero the slots the rule constrains beyond onto so the projected key compares
	// equal to keys built from rules constraining exactly the onto fields.
	if m&maskEtherType != 0 && onto&maskEtherType == 0 {
		k.etherType = 0
	}
	if m&maskIPProto != 0 && onto&maskIPProto == 0 {
		k.ipProto = 0
	}
	if m&maskSrcUser != 0 && onto&maskSrcUser == 0 {
		k.srcUser = ""
	}
	if m&maskSrcHost != 0 && onto&maskSrcHost == 0 {
		k.srcHost = ""
	}
	if m&maskSrcIP != 0 && onto&maskSrcIP == 0 {
		k.srcIP = netpkt.IPv4{}
	}
	if m&maskSrcPort != 0 && onto&maskSrcPort == 0 {
		k.srcPort = 0
	}
	if m&maskSrcMAC != 0 && onto&maskSrcMAC == 0 {
		k.srcMAC = netpkt.MAC{}
	}
	if m&maskSrcSwitchPort != 0 && onto&maskSrcSwitchPort == 0 {
		k.srcSwitchPort = 0
	}
	if m&maskSrcDPID != 0 && onto&maskSrcDPID == 0 {
		k.srcDPID = 0
	}
	if m&maskDstUser != 0 && onto&maskDstUser == 0 {
		k.dstUser = ""
	}
	if m&maskDstHost != 0 && onto&maskDstHost == 0 {
		k.dstHost = ""
	}
	if m&maskDstIP != 0 && onto&maskDstIP == 0 {
		k.dstIP = netpkt.IPv4{}
	}
	if m&maskDstPort != 0 && onto&maskDstPort == 0 {
		k.dstPort = 0
	}
	if m&maskDstMAC != 0 && onto&maskDstMAC == 0 {
		k.dstMAC = netpkt.MAC{}
	}
	if m&maskDstSwitchPort != 0 && onto&maskDstSwitchPort == 0 {
		k.dstSwitchPort = 0
	}
	if m&maskDstDPID != 0 && onto&maskDstDPID == 0 {
		k.dstDPID = 0
	}
	return k, true
}
