package policy

import (
	"maps"

	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// Indexed matching inside a snapshot. Each priority level is one bucket;
// inside a bucket every rule lives in exactly one candidate list, chosen by
// the first exact-valued field it constrains (in a fixed selectivity
// order), with rules constraining none of the indexed fields in a small
// residual list. A query probes each index with the flow's concrete values
// and runs the full Matches check only on the candidates, so the cost is
// O(candidates that share a concrete identifier with the flow), not
// O(rules) — the difference between a 10k-rule linear scan and a handful
// of hash probes per priority level.
//
// The indexed fields are the cheap, high-cardinality discriminators: the
// endpoint IPs, MACs, users and hostnames, plus EtherType for the
// L2-protocol rules. Ports, switch ports, DPIDs and IP protocol stay in
// the residual list — they are either low-cardinality or rare as a rule's
// only constraint, and the residual list keeps correctness for them.
//
// Buckets are copy-on-write: an apply edits only the buckets at the
// priorities it changed (see bucket.edit), and inside one only the index
// maps and lists that file a changed rule; the next snapshot shares
// everything else with the one before.
type bucket struct {
	priority int
	// rules holds every rule of the bucket in id order, for the conflict
	// scan.
	rules []*Rule

	bySrcIP   map[netpkt.IPv4][]*Rule
	byDstIP   map[netpkt.IPv4][]*Rule
	bySrcMAC  map[netpkt.MAC][]*Rule
	byDstMAC  map[netpkt.MAC][]*Rule
	bySrcUser map[string][]*Rule
	byDstUser map[string][]*Rule
	bySrcHost map[string][]*Rule
	byDstHost map[string][]*Rule
	byEther   map[uint16][]*Rule

	residual []*Rule
}

// slot names the candidate list a rule is filed under: the index of the
// first field, in selectivity order, that the rule constrains to an exact
// value, or the residual list.
type slot uint8

const (
	slotSrcIP slot = iota
	slotDstIP
	slotSrcMAC
	slotDstMAC
	slotSrcUser
	slotDstUser
	slotSrcHost
	slotDstHost
	slotEther
	slotResidual
	numSlots
)

func slotOf(r *Rule) slot {
	switch {
	case r.Src.IP != nil:
		return slotSrcIP
	case r.Dst.IP != nil:
		return slotDstIP
	case r.Src.MAC != nil:
		return slotSrcMAC
	case r.Dst.MAC != nil:
		return slotDstMAC
	case r.Src.User != "":
		return slotSrcUser
	case r.Dst.User != "":
		return slotDstUser
	case r.Src.Host != "":
		return slotSrcHost
	case r.Dst.Host != "":
		return slotDstHost
	case r.Props.EtherType != nil:
		return slotEther
	default:
		return slotResidual
	}
}

// change is what one apply does to a list of rules: the rules it removes
// and the rules it files, each in id order. A rule in both (same id) is
// replaced in place.
type change struct {
	gone, add []*Rule
}

func (c change) empty() bool { return len(c.gone) == 0 && len(c.add) == 0 }

// edit returns the bucket with c applied. It never writes into b: the
// result shares every index map and list of b that c leaves alone, and
// holds a copy of each one that files a changed rule.
func (b bucket) edit(c change) bucket {
	var per [numSlots]change
	for _, r := range c.gone {
		s := slotOf(r)
		per[s].gone = append(per[s].gone, r)
	}
	for _, r := range c.add {
		s := slotOf(r)
		per[s].add = append(per[s].add, r)
	}
	b.rules = editList(b.rules, c)
	b.bySrcIP = editIndex(b.bySrcIP, per[slotSrcIP], func(r *Rule) netpkt.IPv4 { return *r.Src.IP })
	b.byDstIP = editIndex(b.byDstIP, per[slotDstIP], func(r *Rule) netpkt.IPv4 { return *r.Dst.IP })
	b.bySrcMAC = editIndex(b.bySrcMAC, per[slotSrcMAC], func(r *Rule) netpkt.MAC { return *r.Src.MAC })
	b.byDstMAC = editIndex(b.byDstMAC, per[slotDstMAC], func(r *Rule) netpkt.MAC { return *r.Dst.MAC })
	b.bySrcUser = editIndex(b.bySrcUser, per[slotSrcUser], func(r *Rule) string { return r.Src.User })
	b.byDstUser = editIndex(b.byDstUser, per[slotDstUser], func(r *Rule) string { return r.Dst.User })
	b.bySrcHost = editIndex(b.bySrcHost, per[slotSrcHost], func(r *Rule) string { return r.Src.Host })
	b.byDstHost = editIndex(b.byDstHost, per[slotDstHost], func(r *Rule) string { return r.Dst.Host })
	b.byEther = editIndex(b.byEther, per[slotEther], func(r *Rule) uint16 { return *r.Props.EtherType })
	if !per[slotResidual].empty() {
		b.residual = editList(b.residual, per[slotResidual])
	}
	return b
}

// editIndex returns m with c applied to the candidate lists of the keys c
// touches: a copy of m when c is not empty, m itself otherwise. A list c
// empties loses its key.
func editIndex[K comparable](m map[K][]*Rule, c change, key func(*Rule) K) map[K][]*Rule {
	if c.empty() {
		return m
	}
	byKey := make(map[K]change, len(c.gone)+len(c.add))
	for _, r := range c.gone {
		k := key(r)
		kc := byKey[k]
		kc.gone = append(kc.gone, r)
		byKey[k] = kc
	}
	for _, r := range c.add {
		k := key(r)
		kc := byKey[k]
		kc.add = append(kc.add, r)
		byKey[k] = kc
	}
	out := maps.Clone(m)
	if out == nil {
		out = make(map[K][]*Rule, len(byKey))
	}
	for k, kc := range byKey {
		if l := editList(m[k], kc); len(l) > 0 {
			out[k] = l
		} else {
			delete(out, k)
		}
	}
	return out
}

// editList returns a new list holding list's rules without c.gone and with
// c.add merged in, in id order; list must be in id order.
func editList(list []*Rule, c change) []*Rule {
	out := make([]*Rule, 0, max(len(list)+len(c.add)-len(c.gone), 0))
	gone, add := c.gone, c.add
	for _, r := range list {
		for len(add) > 0 && add[0].ID < r.ID {
			out = append(out, add[0])
			add = add[1:]
		}
		for len(gone) > 0 && gone[0].ID < r.ID {
			gone = gone[1:]
		}
		if len(gone) > 0 && gone[0].ID == r.ID {
			continue
		}
		out = append(out, r)
	}
	return append(out, add...)
}

// match returns the bucket's winning rule for the flow, or nil. All
// candidates share the bucket's priority, so the only tie-break is
// Deny-wins; a matching Deny short-circuits the remaining probes.
//
//dfi:hotpath
func (b *bucket) match(f *FlowView) *Rule {
	var best *Rule
	// The closure never escapes match, so it stays on the stack (the
	// BenchmarkPolicyQuery 0 B/op results prove it).
	scan := func(candidates []*Rule) bool { //dfi:ignore hotpathalloc
		for _, r := range candidates {
			if !r.Matches(f) {
				continue
			}
			if r.Action == ActionDeny {
				best = r
				return true
			}
			if best == nil {
				best = r
			}
		}
		return false
	}
	// A rule indexed under a concrete value can only match flows carrying
	// that value, so probing with the flow's own identifiers reaches every
	// possible candidate; absent identifiers (no IP, no users) can only be
	// matched by rules that don't constrain them, which live elsewhere.
	if f.Src.HasIP {
		if scan(b.bySrcIP[f.Src.IP]) {
			return best
		}
	}
	if f.Dst.HasIP {
		if scan(b.byDstIP[f.Dst.IP]) {
			return best
		}
	}
	if scan(b.bySrcMAC[f.Src.MAC]) {
		return best
	}
	if scan(b.byDstMAC[f.Dst.MAC]) {
		return best
	}
	for _, u := range f.Src.Users {
		if scan(b.bySrcUser[u]) {
			return best
		}
	}
	for _, u := range f.Dst.Users {
		if scan(b.byDstUser[u]) {
			return best
		}
	}
	if f.Src.Host != "" {
		if scan(b.bySrcHost[f.Src.Host]) {
			return best
		}
	}
	if f.Dst.Host != "" {
		if scan(b.byDstHost[f.Dst.Host]) {
			return best
		}
	}
	if scan(b.byEther[f.EtherType]) {
		return best
	}
	scan(b.residual)
	return best
}
