package policy

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
)

// referenceQuery is the seed's O(rules) linear scan, kept as the oracle the
// indexed snapshot must agree with: highest priority wins, Deny beats Allow
// at equal priority, no match means default deny.
func referenceQuery(rules []Rule, f *FlowView) (Action, int, bool) {
	var best *Rule
	for i := range rules {
		r := &rules[i]
		if !r.Matches(f) {
			continue
		}
		switch {
		case best == nil,
			r.Priority > best.Priority,
			r.Priority == best.Priority && r.Action == ActionDeny && best.Action == ActionAllow:
			best = r
		}
	}
	if best == nil {
		return ActionDeny, 0, false
	}
	return best.Action, best.Priority, true
}

// TestSnapshotEquivalence drives random policies and flows through both the
// indexed snapshot and the reference linear scan; any divergence in action,
// winning priority or matched-ness is an indexing bug.
func TestSnapshotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		m := NewManager()
		for _, pdp := range []struct {
			name string
			prio int
		}{{"p1", 10}, {"p2", 20}, {"p3", 30}} {
			if err := m.RegisterPDP(pdp.name, pdp.prio); err != nil {
				t.Fatal(err)
			}
		}
		n := rng.Intn(80)
		for i := 0; i < n; i++ {
			r := randomRule(rng)
			r.PDP = []string{"p1", "p2", "p3"}[rng.Intn(3)]
			if _, err := m.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		rules := m.Rules()
		for i := 0; i < 200; i++ {
			f := randomFlow(rng)
			got := m.Query(f)
			wantAction, wantPrio, wantMatched := referenceQuery(rules, f)
			if got.Matched != wantMatched || got.Action != wantAction {
				t.Fatalf("trial %d: snapshot disagrees with linear scan for %+v:\ngot %v matched=%v, want %v matched=%v",
					trial, f, got.Action, got.Matched, wantAction, wantMatched)
			}
			if got.Matched && got.Rule.Priority != wantPrio {
				t.Fatalf("trial %d: snapshot won at priority %d, linear scan at %d",
					trial, got.Rule.Priority, wantPrio)
			}
		}
	}
}

// TestSnapshotEquivalenceUnderChurn interleaves inserts and revokes with
// queries, re-checking equivalence after every mutation.
func TestSnapshotEquivalenceUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewManager()
	if err := m.RegisterPDP("p1", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterPDP("p2", 20); err != nil {
		t.Fatal(err)
	}
	var live []RuleID
	for step := 0; step < 400; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			r := randomRule(rng)
			r.PDP = []string{"p1", "p2"}[rng.Intn(2)]
			id, err := m.Insert(r)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			i := rng.Intn(len(live))
			if err := m.Revoke(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		rules := m.Rules()
		for i := 0; i < 10; i++ {
			f := randomFlow(rng)
			got := m.Query(f)
			wantAction, _, wantMatched := referenceQuery(rules, f)
			if got.Matched != wantMatched || got.Action != wantAction {
				t.Fatalf("step %d: divergence after churn: got %v/%v want %v/%v",
					step, got.Action, got.Matched, wantAction, wantMatched)
			}
		}
	}
}

// TestQueryZeroAlloc pins the hot-path guarantee: a query — hit or miss —
// allocates nothing.
func TestQueryZeroAlloc(t *testing.T) {
	m := NewManager()
	if err := m.RegisterPDP("p", 10); err != nil {
		t.Fatal(err)
	}
	ip := netpkt.MustParseIPv4("10.0.0.1")
	if _, err := m.Insert(Rule{PDP: "p", Action: ActionAllow, Src: EndpointSpec{IP: &ip}}); err != nil {
		t.Fatal(err)
	}
	port := uint16(445)
	if _, err := m.Insert(Rule{PDP: "p", Action: ActionDeny, Dst: EndpointSpec{Port: &port}}); err != nil {
		t.Fatal(err)
	}
	hit := &FlowView{
		EtherType: netpkt.EtherTypeIPv4,
		Src:       EndpointAttrs{HasIP: true, IP: ip, MAC: netpkt.MAC{2, 0, 0, 0, 0, 1}},
		Dst:       EndpointAttrs{MAC: netpkt.MAC{2, 0, 0, 0, 0, 2}},
	}
	miss := &FlowView{
		EtherType: netpkt.EtherTypeIPv4,
		Src:       EndpointAttrs{HasIP: true, IP: netpkt.MustParseIPv4("10.9.9.9"), MAC: netpkt.MAC{2, 0, 0, 0, 0, 3}},
		Dst:       EndpointAttrs{MAC: netpkt.MAC{2, 0, 0, 0, 0, 4}},
	}
	for name, f := range map[string]*FlowView{"hit": hit, "miss": miss} {
		if allocs := testing.AllocsPerRun(100, func() { m.Query(f) }); allocs != 0 {
			t.Errorf("Query(%s) allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// TestQueryReturnsSnapshotPointer documents the no-copy contract: repeated
// queries of an unchanged policy return the same *Rule, and that pointer
// stays valid (and unchanged) after unrelated mutations build new
// snapshots.
func TestQueryReturnsSnapshotPointer(t *testing.T) {
	m := NewManager()
	if err := m.RegisterPDP("p", 10); err != nil {
		t.Fatal(err)
	}
	ip := netpkt.MustParseIPv4("10.0.0.1")
	id, err := m.Insert(Rule{PDP: "p", Action: ActionAllow, Src: EndpointSpec{IP: &ip}})
	if err != nil {
		t.Fatal(err)
	}
	f := &FlowView{
		EtherType: netpkt.EtherTypeIPv4,
		Src:       EndpointAttrs{HasIP: true, IP: ip},
	}
	d1 := m.Query(f)
	d2 := m.Query(f)
	if !d1.Matched || d1.Rule != d2.Rule {
		t.Fatalf("queries of an unchanged policy returned different rule pointers: %p vs %p", d1.Rule, d2.Rule)
	}
	// An unrelated mutation must not disturb the retained decision.
	other, err := m.Insert(Rule{PDP: "p", Action: ActionDeny, Src: EndpointSpec{User: "mallory"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(other); err != nil {
		t.Fatal(err)
	}
	if d1.Rule.ID != id || d1.Rule.Action != ActionAllow || *d1.Rule.Src.IP != ip {
		t.Fatalf("retained snapshot rule mutated: %+v", d1.Rule)
	}
}

// TestEpochSemantics: the epoch bumps exactly once per effective mutation
// — however many rules one apply changes — never on failed, empty or
// read-only operations, and every decision carries the epoch of the
// snapshot that produced it. A rejected apply also leaves the rules and
// the flush callback untouched.
func TestEpochSemantics(t *testing.T) {
	m := NewManager()
	flushes := 0
	m.SetFlushFunc(func(obs.SpanContext, []RuleID) { flushes++ })
	if e := m.Epoch(); e != 0 {
		t.Fatalf("fresh manager epoch = %d, want 0", e)
	}
	if err := m.RegisterPDP("p", 10); err != nil {
		t.Fatal(err)
	}
	if e := m.Epoch(); e != 0 {
		t.Fatalf("RegisterPDP bumped the epoch to %d", e)
	}
	if _, err := m.Insert(Rule{PDP: "nope"}); err == nil {
		t.Fatal("insert from unknown PDP succeeded")
	}
	if e := m.Epoch(); e != 0 {
		t.Fatalf("failed insert bumped the epoch to %d", e)
	}
	id, err := m.Insert(Rule{PDP: "p", Action: ActionAllow})
	if err != nil {
		t.Fatal(err)
	}
	if e := m.Epoch(); e != 1 {
		t.Fatalf("epoch after insert = %d, want 1", e)
	}
	d := m.Query(&FlowView{EtherType: netpkt.EtherTypeIPv4})
	if d.Epoch != 1 {
		t.Fatalf("decision epoch = %d, want 1", d.Epoch)
	}
	if err := m.Revoke(id); err != nil {
		t.Fatal(err)
	}
	if e := m.Epoch(); e != 2 {
		t.Fatalf("epoch after revoke = %d, want 2", e)
	}
	if err := m.Revoke(id); err == nil {
		t.Fatal("double revoke succeeded")
	}
	if e := m.Epoch(); e != 2 {
		t.Fatalf("failed revoke bumped the epoch to %d", e)
	}
	if _, epoch, err := m.ApplyCtx(obs.SpanContext{}, nil, nil); err != nil || epoch != 0 {
		t.Fatalf("empty apply: epoch %d, err %v, want 0 and none", epoch, err)
	}
	if e := m.Epoch(); e != 2 || flushes != 2 {
		t.Fatalf("empty apply: epoch %d, flushes %d, want 2 and 2", e, flushes)
	}

	// One batched apply of three inserts is one epoch and one flush.
	deny := Rule{PDP: "p", Action: ActionDeny}
	ids, epoch, err := m.ApplyCtx(obs.SpanContext{}, []Rule{deny, deny, deny}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.Epoch(); e != 3 || epoch != 3 || flushes != 3 || m.Len() != 3 {
		t.Fatalf("batched insert: epoch %d, flushes %d, rules %d, want 3, 3, 3", e, flushes, m.Len())
	}

	// Rejected applies change nothing, even where the rest of the batch is
	// valid: an insert from an unknown PDP, a revoke of an unknown id.
	before := m.Rules()
	rejected := []struct {
		name    string
		inserts []Rule
		revokes []RuleID
		want    error
	}{
		{"unknown PDP", []Rule{deny, {PDP: "nope"}}, ids[:1], ErrUnknownPDP},
		{"unknown id", []Rule{deny}, []RuleID{ids[0], id}, ErrUnknownRule},
	}
	for _, tc := range rejected {
		if _, epoch, err := m.ApplyCtx(obs.SpanContext{}, tc.inserts, tc.revokes); !errors.Is(err, tc.want) || epoch != 0 {
			t.Fatalf("%s: epoch %d, err = %v, want 0 and %v", tc.name, epoch, err, tc.want)
		}
		if e := m.Epoch(); e != 3 || flushes != 3 || !reflect.DeepEqual(m.Rules(), before) {
			t.Fatalf("%s: rejected apply changed state: epoch %d, flushes %d, rules %v", tc.name, e, flushes, m.Rules())
		}
	}

	// A batched revoke-and-insert is one epoch too.
	if _, epoch, err = m.ApplyCtx(obs.SpanContext{}, []Rule{deny}, ids); err != nil {
		t.Fatal(err)
	}
	if e := m.Epoch(); e != 4 || epoch != 4 || flushes != 4 || m.Len() != 1 {
		t.Fatalf("batched revoke+insert: epoch %d, flushes %d, rules %d, want 4, 4, 1", e, flushes, m.Len())
	}
}

// TestIndexClassCoverage places one rule in every index class (and the
// residual list) and verifies each is reachable, plus that absent flow
// identifiers cannot reach rules constraining them.
func TestIndexClassCoverage(t *testing.T) {
	m := NewManager()
	if err := m.RegisterPDP("p", 10); err != nil {
		t.Fatal(err)
	}
	srcIP := netpkt.MustParseIPv4("10.1.0.1")
	dstIP := netpkt.MustParseIPv4("10.2.0.1")
	srcMAC := netpkt.MAC{2, 0, 0, 0, 1, 1}
	dstMAC := netpkt.MAC{2, 0, 0, 0, 2, 2}
	arp := uint16(netpkt.EtherTypeARP)
	port := uint16(8080)
	specs := []struct {
		name string
		rule Rule
		flow FlowView
	}{
		{"srcIP", Rule{Src: EndpointSpec{IP: &srcIP}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Src: EndpointAttrs{HasIP: true, IP: srcIP}}},
		{"dstIP", Rule{Dst: EndpointSpec{IP: &dstIP}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Dst: EndpointAttrs{HasIP: true, IP: dstIP}}},
		{"srcMAC", Rule{Src: EndpointSpec{MAC: &srcMAC}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Src: EndpointAttrs{MAC: srcMAC}}},
		{"dstMAC", Rule{Dst: EndpointSpec{MAC: &dstMAC}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Dst: EndpointAttrs{MAC: dstMAC}}},
		{"srcUser", Rule{Src: EndpointSpec{User: "u-src"}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Src: EndpointAttrs{Users: []string{"other", "u-src"}}}},
		{"dstUser", Rule{Dst: EndpointSpec{User: "u-dst"}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Dst: EndpointAttrs{Users: []string{"u-dst"}}}},
		{"srcHost", Rule{Src: EndpointSpec{Host: "h-src"}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Src: EndpointAttrs{Host: "h-src"}}},
		{"dstHost", Rule{Dst: EndpointSpec{Host: "h-dst"}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Dst: EndpointAttrs{Host: "h-dst"}}},
		{"etherType", Rule{Props: FlowProperties{EtherType: &arp}},
			FlowView{EtherType: netpkt.EtherTypeARP}},
		{"residual", Rule{Src: EndpointSpec{Port: &port}},
			FlowView{EtherType: netpkt.EtherTypeIPv4, Src: EndpointAttrs{HasPort: true, Port: port}}},
	}
	for _, s := range specs {
		r := s.rule
		r.PDP = "p"
		r.Action = ActionAllow
		if _, err := m.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range specs {
		f := s.flow
		d := m.Query(&f)
		if !d.Matched || d.Action != ActionAllow {
			t.Errorf("%s: rule unreachable through its index: %+v", s.name, d)
		}
	}
	// A flow with no IP and no users must not reach IP- or user-indexed
	// rules, but still falls through to the residual scan.
	noID := &FlowView{EtherType: netpkt.EtherTypeIPv4, Src: EndpointAttrs{MAC: netpkt.MAC{2, 9, 9, 9, 9, 9}}}
	if d := m.Query(noID); d.Matched {
		t.Errorf("identifier-free flow matched %s", d.Rule)
	}
}

// TestDenyWinsInsideBucket: with an Allow and a Deny at the same priority
// both matching (via different index classes), Deny must win regardless of
// probe order.
func TestDenyWinsInsideBucket(t *testing.T) {
	m := NewManager()
	if err := m.RegisterPDP("p", 10); err != nil {
		t.Fatal(err)
	}
	ip := netpkt.MustParseIPv4("10.0.0.5")
	if _, err := m.Insert(Rule{PDP: "p", Action: ActionAllow, Src: EndpointSpec{IP: &ip}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(Rule{PDP: "p", Action: ActionDeny, Src: EndpointSpec{User: "eve"}}); err != nil {
		t.Fatal(err)
	}
	f := &FlowView{
		EtherType: netpkt.EtherTypeIPv4,
		Src:       EndpointAttrs{HasIP: true, IP: ip, Users: []string{"eve"}},
	}
	if d := m.Query(f); d.Action != ActionDeny {
		t.Fatalf("Deny did not win inside the bucket: %+v", d)
	}
}
