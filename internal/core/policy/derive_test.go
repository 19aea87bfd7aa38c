package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
)

// buildSnapshot freezes the given rule set at the given epoch from
// scratch: the reference the derived snapshots of Snapshot.next must
// equal.
func buildSnapshot(epoch uint64, rules map[RuleID]*Rule) *Snapshot {
	s := &Snapshot{epoch: epoch, all: make([]*Rule, 0, len(rules))}
	for _, r := range rules {
		s.all = append(s.all, r)
	}
	sort.Slice(s.all, func(i, j int) bool { return s.all[i].ID < s.all[j].ID })

	// Group by priority, highest first, preserving id order inside each
	// group so equal-priority iteration stays deterministic.
	byPrio := make(map[int][]*Rule)
	prios := make([]int, 0, 8)
	for _, r := range s.all {
		if _, ok := byPrio[r.Priority]; !ok {
			prios = append(prios, r.Priority)
		}
		byPrio[r.Priority] = append(byPrio[r.Priority], r)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(prios)))
	s.buckets = make([]bucket, len(prios))
	for i, p := range prios {
		s.buckets[i] = buildBucket(p, byPrio[p])
	}
	return s
}

// buildBucket indexes one priority level's rules, given in id order.
func buildBucket(priority int, rules []*Rule) bucket {
	b := bucket{
		priority:  priority,
		rules:     rules,
		bySrcIP:   map[netpkt.IPv4][]*Rule{},
		byDstIP:   map[netpkt.IPv4][]*Rule{},
		bySrcMAC:  map[netpkt.MAC][]*Rule{},
		byDstMAC:  map[netpkt.MAC][]*Rule{},
		bySrcUser: map[string][]*Rule{},
		byDstUser: map[string][]*Rule{},
		bySrcHost: map[string][]*Rule{},
		byDstHost: map[string][]*Rule{},
		byEther:   map[uint16][]*Rule{},
	}
	for _, r := range rules {
		switch {
		case r.Src.IP != nil:
			b.bySrcIP[*r.Src.IP] = append(b.bySrcIP[*r.Src.IP], r)
		case r.Dst.IP != nil:
			b.byDstIP[*r.Dst.IP] = append(b.byDstIP[*r.Dst.IP], r)
		case r.Src.MAC != nil:
			b.bySrcMAC[*r.Src.MAC] = append(b.bySrcMAC[*r.Src.MAC], r)
		case r.Dst.MAC != nil:
			b.byDstMAC[*r.Dst.MAC] = append(b.byDstMAC[*r.Dst.MAC], r)
		case r.Src.User != "":
			b.bySrcUser[r.Src.User] = append(b.bySrcUser[r.Src.User], r)
		case r.Dst.User != "":
			b.byDstUser[r.Dst.User] = append(b.byDstUser[r.Dst.User], r)
		case r.Src.Host != "":
			b.bySrcHost[r.Src.Host] = append(b.bySrcHost[r.Src.Host], r)
		case r.Dst.Host != "":
			b.byDstHost[r.Dst.Host] = append(b.byDstHost[r.Dst.Host], r)
		case r.Props.EtherType != nil:
			b.byEther[*r.Props.EtherType] = append(b.byEther[*r.Props.EtherType], r)
		default:
			b.residual = append(b.residual, r)
		}
	}
	return b
}

// dumpSnapshot renders everything a snapshot holds — bucket order, every
// candidate list in order, All — by rule pointer, id and origin, with map
// keys sorted; an empty list and an absent key render alike.
func dumpSnapshot(s *Snapshot) string {
	var b strings.Builder
	list := func(name string, rs []*Rule) {
		if len(rs) == 0 {
			return
		}
		fmt.Fprintf(&b, "  %s:", name)
		for _, r := range rs {
			fmt.Fprintf(&b, " %d@%p(%s)", r.ID, r, r.Origin)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "epoch %d\n", s.epoch)
	list("all", s.all)
	for i := range s.buckets {
		bk := &s.buckets[i]
		fmt.Fprintf(&b, "bucket %d\n", bk.priority)
		list("rules", bk.rules)
		dumpIndex(&b, "srcIP", bk.bySrcIP, list)
		dumpIndex(&b, "dstIP", bk.byDstIP, list)
		dumpIndex(&b, "srcMAC", bk.bySrcMAC, list)
		dumpIndex(&b, "dstMAC", bk.byDstMAC, list)
		dumpIndex(&b, "srcUser", bk.bySrcUser, list)
		dumpIndex(&b, "dstUser", bk.byDstUser, list)
		dumpIndex(&b, "srcHost", bk.bySrcHost, list)
		dumpIndex(&b, "dstHost", bk.byDstHost, list)
		dumpIndex(&b, "ether", bk.byEther, list)
		list("residual", bk.residual)
	}
	return b.String()
}

func dumpIndex[K comparable](b *strings.Builder, name string, m map[K][]*Rule, list func(string, []*Rule)) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y K) int { return strings.Compare(fmt.Sprint(x), fmt.Sprint(y)) })
	for _, k := range keys {
		list(fmt.Sprintf("%s[%v]", name, k), m[k])
	}
}

// referenceFlush is the flush list of an apply by its definition: the
// revoked ids, every surviving rule an insert outranks with the opposite
// action and overlaps, and the default deny under any allow.
func referenceFlush(before *Snapshot, prio map[string]int, inserts []Rule, revokes []RuleID) []RuleID {
	out := slices.Clone(revokes)
	for _, in := range inserts {
		in.Priority = prio[in.PDP]
		for _, r := range before.All() {
			outranked := r.Priority < in.Priority || (r.Priority == in.Priority && in.Action == ActionDeny)
			if outranked && r.Action != in.Action && r.Overlaps(&in) && !slices.Contains(revokes, r.ID) {
				out = append(out, r.ID)
			}
		}
		if in.Action == ActionAllow {
			out = append(out, DefaultDenyID)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// published is what a snapshot answered when it was published.
type published struct {
	snap    *Snapshot
	dump    string
	gets    []*Rule // Get(id) for id 0..len(gets)-1
	queries []Decision
}

func observe(s *Snapshot, maxID RuleID, flows []*FlowView) published {
	p := published{snap: s, dump: dumpSnapshot(s)}
	for id := RuleID(0); id <= maxID+1; id++ {
		p.gets = append(p.gets, s.Get(id))
	}
	for _, f := range flows {
		p.queries = append(p.queries, s.Query(f))
	}
	return p
}

// TestDerivedSnapshotMatchesFreshBuild: seeded ApplyCtx sequences —
// inserts, revokes and relabels across four priorities, a priority
// registered midway, buckets revoked empty and refilled — publish derived
// snapshots that equal a fresh build over the same rules in every
// respect: bucket order, every candidate list's contents and order, All,
// Get (absent ids too) and the *Rule Query returns for random flows. Every
// earlier snapshot still answers as it did when it was published, and
// every flush list is the one the apply's definition gives.
func TestDerivedSnapshotMatchesFreshBuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			deriveSequence(t, rand.New(rand.NewSource(seed)))
		})
	}
}

func deriveSequence(t *testing.T, rng *rand.Rand) {
	m := NewManager()
	pdps := []string{"p10", "p20", "p30", "p40"}
	for i, name := range pdps {
		if err := m.RegisterPDP(name, 10*(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	flows := make([]*FlowView, 64)
	for i := range flows {
		flows[i] = randomFlow(rng)
	}
	var flushed []RuleID
	m.SetFlushFunc(func(_ obs.SpanContext, ids []RuleID) { flushed = ids })
	prio := map[string]int{"p10": 10, "p20": 20, "p30": 30, "p40": 40, "p25": 25}
	var slots [numSlots]int
	var history []published
	emptied, relabeled := 0, 0
	for step := 0; step < 120; step++ {
		if step == 60 {
			if err := m.RegisterPDP("p25", 25); err != nil {
				t.Fatal(err)
			}
			pdps = append(pdps, "p25")
		}
		before := m.Snapshot()
		var inserts []Rule
		var revokes []RuleID
		var relabels []Relabel
		switch {
		case step%15 == 14 && len(before.buckets) > 0:
			// Revoke one priority's every rule: its bucket goes away.
			for _, r := range before.buckets[rng.Intn(len(before.buckets))].rules {
				revokes = append(revokes, r.ID)
			}
			emptied++
		default:
			for n := rng.Intn(4); n > 0; n-- {
				inserts = append(inserts, randomRule(rng))
			}
			if step%10 == 5 {
				// The two slots random rules seldom reach.
				arp, port := uint16(netpkt.EtherTypeARP), uint16(rng.Intn(3)+1)
				inserts = append(inserts, Rule{Action: ActionDeny, Props: FlowProperties{EtherType: &arp}},
					Rule{Action: ActionAllow, Dst: EndpointSpec{Port: &port}})
			}
			for i := range inserts {
				inserts[i].PDP = pdps[rng.Intn(len(pdps))]
			}
			for _, r := range before.all {
				switch rng.Intn(12) {
				case 0:
					revokes = append(revokes, r.ID)
				case 1:
					relabels = append(relabels, Relabel{ID: r.ID, Origin: fmt.Sprintf("step %d", step)})
				}
			}
		}
		for _, id := range revokes {
			slots[slotOf(before.Get(id))]++
		}
		for i := range inserts {
			slots[slotOf(&inserts[i])]++
		}
		relabeled += len(relabels)
		flushed = nil
		if _, _, err := m.ApplyCtx(obs.SpanContext{}, inserts, revokes, relabels...); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if want := referenceFlush(before, prio, inserts, revokes); !slices.Equal(flushed, want) {
			t.Fatalf("step %d: flushed %v, want %v", step, flushed, want)
		}

		s := m.Snapshot()
		rules := make(map[RuleID]*Rule, s.Len())
		for _, r := range s.All() {
			rules[r.ID] = r
		}
		ref := buildSnapshot(s.Epoch(), rules)
		if got, want := dumpSnapshot(s), dumpSnapshot(ref); got != want {
			t.Fatalf("step %d: derived snapshot differs from a fresh build\n got:\n%s\nwant:\n%s", step, got, want)
		}
		for _, rl := range relabels {
			if r := s.Get(rl.ID); r.Origin != rl.Origin || before.Get(rl.ID).Origin == rl.Origin {
				t.Fatalf("step %d: relabel of %d: origin %q now, %q before", step, rl.ID, r.Origin, before.Get(rl.ID).Origin)
			}
		}
		maxID := m.nextID
		got, want := observe(s, maxID, flows), observe(ref, maxID, flows)
		for id := range got.gets {
			if got.gets[id] != want.gets[id] {
				t.Fatalf("step %d: Get(%d) = %v, a fresh build gives %v", step, id, got.gets[id], want.gets[id])
			}
		}
		for i := range got.queries {
			if got.queries[i] != want.queries[i] {
				t.Fatalf("step %d: Query(flow %d) = %+v, a fresh build gives %+v", step, i, got.queries[i], want.queries[i])
			}
		}
		history = append(history, got)
	}
	for i, p := range history {
		if again := observe(p.snap, RuleID(len(p.gets)-2), flows); again.dump != p.dump ||
			!slices.Equal(again.gets, p.gets) || !slices.Equal(again.queries, p.queries) {
			t.Fatalf("snapshot %d of %d answers differently than when it was published", i, len(history))
		}
	}
	for s, n := range slots {
		if n == 0 {
			t.Errorf("no changed rule was filed under slot %d", s)
		}
	}
	if emptied == 0 || relabeled == 0 {
		t.Errorf("sequence emptied %d buckets and relabeled %d rules; want both", emptied, relabeled)
	}
}
