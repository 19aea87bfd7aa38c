// Package policy implements DFI's policy model and Policy Manager
// (paper §III-B): rules of the form (Action, Flow Properties, Source,
// Destination) written over high-level identifiers with wildcards, emitted
// and revoked by Policy Decision Points, stored with per-PDP priorities,
// checked for conflicts, and queried per flow with a default-deny fallback.
package policy

import (
	"fmt"
	"strings"

	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// Action is a policy rule's disposition for matching flows.
type Action uint8

// Policy actions.
const (
	ActionAllow Action = iota + 1
	ActionDeny
)

// String renders the action for logs and policy listings.
func (a Action) String() string {
	switch a {
	case ActionAllow:
		return "Allow"
	case ActionDeny:
		return "Deny"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// RuleID uniquely identifies an inserted policy rule; PDPs use it to revoke
// the rule later, and the PCP tags derived flow rules with it (as the
// OpenFlow cookie) so they can be flushed when the rule changes.
type RuleID uint64

// DefaultDenyID is the reserved id of the implicit default-deny catch-all:
// flow rules installed for flows that matched no policy carry this id as
// their cookie, and it appears in flush notifications when a new Allow rule
// could supersede previously-denied flows.
const DefaultDenyID RuleID = 0

// FlowProperties constrains the traffic a rule applies to. Nil fields are
// wildcards (the paper's (∗, ∗)).
type FlowProperties struct {
	EtherType *uint16
	IPProto   *uint8
}

// String renders the properties for policy listings.
func (p FlowProperties) String() string {
	et, ip := "*", "*"
	if p.EtherType != nil {
		et = fmt.Sprintf("0x%04x", *p.EtherType)
	}
	if p.IPProto != nil {
		ip = fmt.Sprintf("%d", *p.IPProto)
	}
	return "(" + et + ", " + ip + ")"
}

// EndpointSpec describes one end of the flows a rule matches, over the
// paper's identifier tuple: username, hostname, IP address, TCP/UDP port,
// MAC address, switch port and switch DPID. Zero/nil fields are wildcards.
type EndpointSpec struct {
	User       string
	Host       string
	IP         *netpkt.IPv4
	Port       *uint16
	MAC        *netpkt.MAC
	SwitchPort *uint32
	DPID       *uint64
}

// String renders the spec in the paper's tuple notation.
func (e EndpointSpec) String() string {
	fields := make([]string, 0, 7)
	str := func(s string) string {
		if s == "" {
			return "*"
		}
		return s
	}
	fields = append(fields, str(e.User), str(e.Host))
	if e.IP != nil {
		fields = append(fields, e.IP.String())
	} else {
		fields = append(fields, "*")
	}
	if e.Port != nil {
		fields = append(fields, fmt.Sprintf("%d", *e.Port))
	} else {
		fields = append(fields, "*")
	}
	if e.MAC != nil {
		fields = append(fields, e.MAC.String())
	} else {
		fields = append(fields, "*")
	}
	if e.SwitchPort != nil {
		fields = append(fields, fmt.Sprintf("%d", *e.SwitchPort))
	} else {
		fields = append(fields, "*")
	}
	if e.DPID != nil {
		fields = append(fields, fmt.Sprintf("%#x", *e.DPID))
	} else {
		fields = append(fields, "*")
	}
	return "(" + strings.Join(fields, ", ") + ")"
}

// Rule is one policy rule emitted by a PDP.
type Rule struct {
	// ID is assigned by the Policy Manager at insert. Compiled policy
	// sources keep ids stable across recompiles: a lowered rule whose
	// definition is unchanged is left in place rather than revoked and
	// re-inserted, so its derived flow rules (cookie-tagged with the id)
	// survive the recompile untouched.
	ID RuleID
	// PDP names the emitting Policy Decision Point; the rule inherits
	// that PDP's priority.
	PDP      string
	Priority int
	Action   Action
	Props    FlowProperties
	Src      EndpointSpec
	Dst      EndpointSpec
	// Origin is an optional provenance tag set by whoever emitted the
	// rule — the policy-language compiler records the source line and the
	// group member or template instance that produced the rule. It is
	// metadata only: matching, overlap checks and the policy verifier's
	// rule signatures ignore it. The manager changes it only through a
	// relabel (see Manager.ApplyCtx), which keeps the rule's id.
	Origin string
}

// String renders the rule in the paper's tuple notation, followed by its
// Origin when it has one.
func (r *Rule) String() string {
	s := fmt.Sprintf("#%d[%s p%d] (%s, %s, %s, %s)",
		r.ID, r.PDP, r.Priority, r.Action, r.Props, r.Src, r.Dst)
	if r.Origin != "" {
		s += " <- " + r.Origin
	}
	return s
}

// EndpointAttrs is the enriched identity of one end of an observed flow:
// the low-level identifiers seen in the packet plus the high-level
// identifiers the Entity Resolution Manager associated with them.
type EndpointAttrs struct {
	// Users holds every user currently bound to the endpoint's host
	// (hosts can have multiple logged-on users).
	Users []string
	Host  string
	HasIP bool
	IP    netpkt.IPv4
	// HasPort is set for TCP/UDP flows.
	HasPort bool
	Port    uint16
	MAC     netpkt.MAC
	// SwitchPort/DPID locate the endpoint's attachment when known (always
	// known for the source of a packet-in; for the destination only after
	// the MAC has been learned).
	HasSwitchPort bool
	SwitchPort    uint32
	HasDPID       bool
	DPID          uint64
}

// FlowView is the fully enriched description of one observed flow that the
// PCP queries policy with.
type FlowView struct {
	EtherType  uint16
	HasIPProto bool
	IPProto    uint8
	Src        EndpointAttrs
	Dst        EndpointAttrs
}

// Matches reports whether the rule applies to the flow: flow properties and
// both endpoint specs must be satisfied.
func (r *Rule) Matches(f *FlowView) bool {
	if r.Props.EtherType != nil && *r.Props.EtherType != f.EtherType {
		return false
	}
	if r.Props.IPProto != nil && (!f.HasIPProto || *r.Props.IPProto != f.IPProto) {
		return false
	}
	return r.Src.matches(&f.Src) && r.Dst.matches(&f.Dst)
}

func (e *EndpointSpec) matches(a *EndpointAttrs) bool {
	if e.User != "" {
		found := false
		for _, u := range a.Users {
			if u == e.User {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if e.Host != "" && e.Host != a.Host {
		return false
	}
	if e.IP != nil && (!a.HasIP || *e.IP != a.IP) {
		return false
	}
	if e.Port != nil && (!a.HasPort || *e.Port != a.Port) {
		return false
	}
	if e.MAC != nil && *e.MAC != a.MAC {
		return false
	}
	if e.SwitchPort != nil && (!a.HasSwitchPort || *e.SwitchPort != a.SwitchPort) {
		return false
	}
	if e.DPID != nil && (!a.HasDPID || *e.DPID != a.DPID) {
		return false
	}
	return true
}

// overlaps reports whether two specs can match a common flow endpoint:
// every field pair is compatible when either side is a wildcard or the
// values are equal. Used for conflict detection (paper §III-B).
//
// User constraints are always treated as compatible, even with different
// names: a host can have several logged-on users simultaneously, so rules
// over two different users can both match one flow endpoint. Every other
// field is single-valued per packet.
func (e *EndpointSpec) overlaps(o *EndpointSpec) bool {
	if e.Host != "" && o.Host != "" && e.Host != o.Host {
		return false
	}
	if e.IP != nil && o.IP != nil && *e.IP != *o.IP {
		return false
	}
	if e.Port != nil && o.Port != nil && *e.Port != *o.Port {
		return false
	}
	if e.MAC != nil && o.MAC != nil && *e.MAC != *o.MAC {
		return false
	}
	if e.SwitchPort != nil && o.SwitchPort != nil && *e.SwitchPort != *o.SwitchPort {
		return false
	}
	if e.DPID != nil && o.DPID != nil && *e.DPID != *o.DPID {
		return false
	}
	return true
}

// Overlaps reports whether two rules can both match some flow.
func (r *Rule) Overlaps(o *Rule) bool {
	if r.Props.EtherType != nil && o.Props.EtherType != nil && *r.Props.EtherType != *o.Props.EtherType {
		return false
	}
	if r.Props.IPProto != nil && o.Props.IPProto != nil && *r.Props.IPProto != *o.Props.IPProto {
		return false
	}
	return r.Src.overlaps(&o.Src) && r.Dst.overlaps(&o.Dst)
}
