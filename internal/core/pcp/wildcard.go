package pcp

import (
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// Wildcard rule caching — the CAB-ACME-style extension the paper names as
// an opportunity (§III-B): instead of one exact-match rule per flow, cache
// a wider rule when it is provably safe, cutting control-plane load for
// flow-dense host pairs.
//
// The paper states the key challenge: "avoid caching wildcarded flow rules
// that match packets for which higher-priority policy rules may exist ...
// non-trivial because we expect changes in the policy database over time,
// and these policy rules may contain identifiers that must be mapped
// during rule compilation."
//
// Safety argument implemented here. A widened rule (cookie = winning rule
// id) covers a flow space S. It is safe iff every packet in S gets the
// same decision from the same winning rule:
//
//  1. The winner must match ALL of S: no field the winner constrains may
//     be dropped from the match (so lower-priority rules can never win
//     inside S).
//  2. No other stored rule with a different action may match ANY packet
//     of S. Rules written over users/hostnames are treated as "may match"
//     whenever their concrete fields are compatible — their identifier
//     bindings can change without a policy-database event, so they block
//     widening outright.
//  3. Later policy changes are covered by the existing flush machinery:
//     a higher-priority conflicting insert flushes the winner's cookie
//     (and a new Allow flushes cached default denies), removing the
//     widened rule exactly when an exact rule would have been removed.
//
// Two widening levels are attempted, most aggressive first: drop the
// TCP/UDP ports and the IP addresses (a pure L2 pair rule), or drop only
// the ports. MACs, ingress port and EtherType/IP-protocol stay pinned
// always, as does anything the winner constrains.

// widenDrop describes which packet fields a widening level drops; the
// zero value drops nothing (the exact match).
type widenDrop struct {
	ports bool
	ips   bool
}

var widenLevels = []widenDrop{
	{ports: true, ips: true},
	{ports: true, ips: false},
}

// compileCachedMatch returns the widest safe widening level for the
// decided flow, falling back to the exact level (widenDrop{}). compileBuf.fill
// builds the match for the level.
func (p *PCP) compileCachedMatch(key netpkt.FlowKey, fv *policy.FlowView, dec Decision) widenDrop {
	var exact widenDrop
	if !p.cfg.WildcardCaching {
		return exact
	}
	// Nothing to widen for non-IP traffic (ARP and friends are already
	// minimal and identifier-sensitive via their addresses).
	if key.EtherType != netpkt.EtherTypeIPv4 || !key.HasIP {
		return exact
	}

	// One immutable snapshot serves both the winner lookup and the safety
	// walk, so the check is consistent and copies nothing.
	snap := p.cfg.Policy.Snapshot()
	var winner *policy.Rule
	if dec.RuleID != policy.DefaultDenyID {
		if winner = snap.Get(dec.RuleID); winner == nil {
			return exact // revoked mid-flight; stay exact
		}
	}
	action := policy.ActionDeny
	if dec.Allow {
		action = policy.ActionAllow
	}

	rules := snap.All()
	for _, drop := range widenLevels {
		if !winnerAllowsDrop(winner, drop) {
			continue
		}
		if !key.HasL4 && drop.ports && !drop.ips {
			// Port-only widening is meaningless without L4 ports; the
			// exact match already has none.
			continue
		}
		if safeToWiden(rules, winner, action, fv, drop) {
			return drop
		}
	}
	return exact
}

// winnerAllowsDrop reports whether the winning rule constrains none of the
// fields the widening level drops (condition 1). The implicit default deny
// (nil winner) constrains nothing.
func winnerAllowsDrop(winner *policy.Rule, drop widenDrop) bool {
	if winner == nil {
		return true
	}
	if drop.ports && (winner.Src.Port != nil || winner.Dst.Port != nil) {
		return false
	}
	if drop.ips {
		// IPs proxy for user/host identity: a winner written over any of
		// them must keep IPs pinned.
		if winner.Src.IP != nil || winner.Dst.IP != nil ||
			winner.Src.User != "" || winner.Dst.User != "" ||
			winner.Src.Host != "" || winner.Dst.Host != "" {
			return false
		}
	}
	return true
}

// safeToWiden checks condition 2 over the whole policy database.
func safeToWiden(rules []*policy.Rule, winner *policy.Rule, action policy.Action, fv *policy.FlowView, drop widenDrop) bool {
	for _, r := range rules {
		if winner != nil && r.ID == winner.ID {
			continue
		}
		if r.Action == action {
			continue // same decision everywhere it could match: harmless
		}
		if ruleMayMatchSpace(r, fv, drop) {
			return false
		}
	}
	return true
}

// ruleMayMatchSpace conservatively reports whether r could match some
// packet in the widened space around fv.
func ruleMayMatchSpace(r *policy.Rule, fv *policy.FlowView, drop widenDrop) bool {
	if r.Props.EtherType != nil && *r.Props.EtherType != fv.EtherType {
		return false
	}
	if r.Props.IPProto != nil && (!fv.HasIPProto || *r.Props.IPProto != fv.IPProto) {
		return false
	}
	return endpointMayMatch(&r.Src, &fv.Src, drop) && endpointMayMatch(&r.Dst, &fv.Dst, drop)
}

// endpointMayMatch is the conservative per-endpoint overlap test: dropped
// or binding-dependent fields are assumed to match.
func endpointMayMatch(e *policy.EndpointSpec, a *policy.EndpointAttrs, drop widenDrop) bool {
	// User/host constraints ride on bindings that can change without a
	// policy event: always assume they may come to match (condition 2).
	if e.IP != nil && !drop.ips && (!a.HasIP || *e.IP != a.IP) {
		return false
	}
	if e.Port != nil && !drop.ports && (!a.HasPort || *e.Port != a.Port) {
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
