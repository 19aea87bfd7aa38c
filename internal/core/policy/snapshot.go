package policy

import (
	"cmp"
	"slices"
)

// Snapshot is an immutable, epoch-versioned view of the stored policy. The
// Manager publishes a fresh Snapshot on every mutation and readers load it
// through one atomic pointer, so the admission hot path queries policy
// with zero locking and zero allocation while writers derive the next
// version on the side (copy-on-write).
//
// A writer derives the next snapshot from the published one and what its
// apply changed (see next): priority buckets the apply leaves alone are
// shared, and inside a changed bucket only the index maps and candidate
// lists that file a changed rule are copied. Sharing is safe because
// nothing reachable from a published Snapshot is ever written again.
//
// Everything reachable from a Snapshot — including every *Rule — is frozen:
// callers must treat returned rules as read-only. The epoch increases by
// exactly one per mutation, which is what lets the PCP's flow-decision
// cache detect staleness: a cached decision tagged with epoch E is valid
// only while the current epoch is still E.
type Snapshot struct {
	epoch uint64
	// buckets holds the rules grouped by priority, highest first, each
	// bucket indexed on its cheap discriminating fields (see index.go).
	buckets []bucket
	// all holds every rule ordered by id, for iteration without copying
	// and for Get's binary search.
	all []*Rule
}

// emptySnapshot is the epoch-0 snapshot a fresh Manager starts from.
func emptySnapshot() *Snapshot {
	return &Snapshot{}
}

// next derives the snapshot at epoch that holds s's rules without c.gone
// and with c.add (see change). Every rule of c.gone is in s, and c.add
// holds new rules, whose ids exceed every id in s, and replacements of
// rules in c.gone. next never writes anything s can read, but it may
// append to all's spare capacity, past the end s reads: so it is called at
// most once per snapshot, which the Manager guarantees by deriving only
// from the snapshot it publishes, under its lock.
func (s *Snapshot) next(epoch uint64, c change) *Snapshot {
	n := &Snapshot{epoch: epoch}
	if len(c.gone) == 0 && (len(c.add) == 0 || len(s.all) == 0 || c.add[0].ID > s.all[len(s.all)-1].ID) {
		n.all = append(s.all, c.add...) // ids only grow: no earlier snapshot reads past its own end
	} else {
		n.all = editList(s.all, c)
	}

	// Split the change by priority; an apply touches few priorities.
	var prios []int
	byPrio := map[int]change{}
	for _, r := range c.gone {
		pc, ok := byPrio[r.Priority]
		if !ok {
			prios = append(prios, r.Priority)
		}
		pc.gone = append(pc.gone, r)
		byPrio[r.Priority] = pc
	}
	for _, r := range c.add {
		pc, ok := byPrio[r.Priority]
		if !ok {
			prios = append(prios, r.Priority)
		}
		pc.add = append(pc.add, r)
		byPrio[r.Priority] = pc
	}
	slices.SortFunc(prios, func(a, b int) int { return cmp.Compare(b, a) })

	// Merge the existing buckets with the changed priorities, highest
	// first: a bucket left empty is dropped, a new priority gets a bucket.
	n.buckets = make([]bucket, 0, len(s.buckets)+len(prios))
	i := 0
	for _, p := range prios {
		for i < len(s.buckets) && s.buckets[i].priority > p {
			n.buckets = append(n.buckets, s.buckets[i])
			i++
		}
		b := bucket{priority: p}
		if i < len(s.buckets) && s.buckets[i].priority == p {
			b = s.buckets[i]
			i++
		}
		if b = b.edit(byPrio[p]); len(b.rules) > 0 {
			n.buckets = append(n.buckets, b)
		}
	}
	n.buckets = append(n.buckets, s.buckets[i:]...)
	return n
}

// Epoch returns the snapshot's version number.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Len returns the number of rules in the snapshot.
func (s *Snapshot) Len() int { return len(s.all) }

// All returns every rule in the snapshot ordered by id. The returned slice
// and the rules it points to are immutable: callers must not modify them.
func (s *Snapshot) All() []*Rule { return s.all }

// Get returns the rule with the given id, or nil. The rule is immutable.
func (s *Snapshot) Get(id RuleID) *Rule {
	i, ok := slices.BinarySearchFunc(s.all, id, func(r *Rule, id RuleID) int { return cmp.Compare(r.ID, id) })
	if !ok {
		return nil
	}
	return s.all[i]
}

// Query returns the decision for a flow against this frozen policy: the
// highest-priority matching rule wins; among equal-priority matches with
// conflicting actions, Deny wins; with no match the decision is the
// default Deny. It performs no locking and no allocation.
//
//dfi:hotpath
func (s *Snapshot) Query(f *FlowView) Decision {
	for i := range s.buckets {
		if r := s.buckets[i].match(f); r != nil {
			return Decision{Action: r.Action, Rule: r, Matched: true, Epoch: s.epoch}
		}
	}
	return Decision{Action: ActionDeny, Epoch: s.epoch}
}
