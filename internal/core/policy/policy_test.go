package policy

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

func newManagerWithPDPs(t *testing.T) *Manager {
	t.Helper()
	m := NewManager()
	if err := m.RegisterPDP("low", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterPDP("high", 100); err != nil {
		t.Fatal(err)
	}
	return m
}

func flowBetween(srcHost, dstHost string, srcUsers ...string) *FlowView {
	return &FlowView{
		EtherType:  netpkt.EtherTypeIPv4,
		HasIPProto: true,
		IPProto:    netpkt.ProtoTCP,
		Src:        EndpointAttrs{Host: srcHost, Users: srcUsers},
		Dst:        EndpointAttrs{Host: dstHost},
	}
}

func TestActionString(t *testing.T) {
	if ActionAllow.String() != "Allow" || ActionDeny.String() != "Deny" {
		t.Fatal("action strings wrong")
	}
	if Action(9).String() != "Action(9)" {
		t.Fatal("unknown action string wrong")
	}
}

func TestDefaultDeny(t *testing.T) {
	m := newManagerWithPDPs(t)
	d := m.Query(flowBetween("a", "b"))
	if d.Matched || d.Action != ActionDeny {
		t.Fatalf("empty policy decision = %+v, want default deny", d)
	}
}

func TestRegisterPDPUniqueness(t *testing.T) {
	m := NewManager()
	if err := m.RegisterPDP("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterPDP("a", 2); !errors.Is(err, ErrDuplicatePDP) {
		t.Fatalf("duplicate name error = %v", err)
	}
	if err := m.RegisterPDP("b", 1); !errors.Is(err, ErrDuplicatePriority) {
		t.Fatalf("duplicate priority error = %v", err)
	}
}

func TestInsertUnknownPDP(t *testing.T) {
	m := NewManager()
	if _, err := m.Insert(Rule{PDP: "ghost", Action: ActionAllow}); !errors.Is(err, ErrUnknownPDP) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertQueryRevoke(t *testing.T) {
	m := newManagerWithPDPs(t)
	id, err := m.Insert(Rule{
		PDP:    "low",
		Action: ActionAllow,
		Src:    EndpointSpec{Host: "a"},
		Dst:    EndpointSpec{Host: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Query(flowBetween("a", "b"))
	if !d.Matched || d.Action != ActionAllow || d.Rule.ID != id {
		t.Fatalf("decision = %+v", d)
	}
	// Non-matching flow still denied.
	if d := m.Query(flowBetween("a", "c")); d.Matched {
		t.Fatalf("unexpected match: %+v", d)
	}
	if err := m.Revoke(id); err != nil {
		t.Fatal(err)
	}
	if d := m.Query(flowBetween("a", "b")); d.Matched {
		t.Fatalf("matched after revoke: %+v", d)
	}
	if err := m.Revoke(id); !errors.Is(err, ErrUnknownRule) {
		t.Fatalf("double revoke err = %v", err)
	}
}

func TestHigherPriorityWins(t *testing.T) {
	m := newManagerWithPDPs(t)
	if _, err := m.Insert(Rule{PDP: "low", Action: ActionAllow, Src: EndpointSpec{Host: "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(Rule{PDP: "high", Action: ActionDeny, Src: EndpointSpec{Host: "a"}}); err != nil {
		t.Fatal(err)
	}
	d := m.Query(flowBetween("a", "b"))
	if d.Action != ActionDeny || d.Rule.PDP != "high" {
		t.Fatalf("decision = %+v, want high-priority deny", d)
	}
}

func TestEqualPriorityDenyWins(t *testing.T) {
	m := newManagerWithPDPs(t)
	if _, err := m.Insert(Rule{PDP: "low", Action: ActionAllow, Src: EndpointSpec{Host: "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(Rule{PDP: "low", Action: ActionDeny, Dst: EndpointSpec{Host: "b"}}); err != nil {
		t.Fatal(err)
	}
	d := m.Query(flowBetween("a", "b"))
	if d.Action != ActionDeny {
		t.Fatalf("decision = %+v, want deny on same-priority conflict", d)
	}
}

func TestUserMatching(t *testing.T) {
	m := newManagerWithPDPs(t)
	// The paper's example: any machine Alice is using may talk to any
	// machine Bob is using.
	if _, err := m.Insert(Rule{
		PDP:    "low",
		Action: ActionAllow,
		Src:    EndpointSpec{User: "alice"},
		Dst:    EndpointSpec{User: "bob"},
	}); err != nil {
		t.Fatal(err)
	}
	f := &FlowView{
		EtherType: netpkt.EtherTypeIPv4,
		Src:       EndpointAttrs{Host: "pc1", Users: []string{"alice", "carol"}},
		Dst:       EndpointAttrs{Host: "pc2", Users: []string{"bob"}},
	}
	if d := m.Query(f); !d.Matched || d.Action != ActionAllow {
		t.Fatalf("decision = %+v", d)
	}
	// Bob logs off pc2: the same rule no longer matches.
	f.Dst.Users = nil
	if d := m.Query(f); d.Matched {
		t.Fatalf("matched with bob logged off: %+v", d)
	}
}

func TestFlowPropertiesMatching(t *testing.T) {
	m := newManagerWithPDPs(t)
	if _, err := m.Insert(Rule{
		PDP:    "low",
		Action: ActionAllow,
		Props:  FlowProperties{EtherType: propU16(netpkt.EtherTypeIPv4), IPProto: propU8(netpkt.ProtoUDP)},
	}); err != nil {
		t.Fatal(err)
	}
	tcp := flowBetween("a", "b") // TCP
	if d := m.Query(tcp); d.Matched {
		t.Fatalf("TCP matched UDP-only rule: %+v", d)
	}
	udp := flowBetween("a", "b")
	udp.IPProto = netpkt.ProtoUDP
	if d := m.Query(udp); !d.Matched {
		t.Fatal("UDP flow did not match")
	}
	arp := &FlowView{EtherType: netpkt.EtherTypeARP}
	if d := m.Query(arp); d.Matched {
		t.Fatalf("ARP matched IPv4-only rule: %+v", d)
	}
}

func TestPortAndAddressMatching(t *testing.T) {
	m := newManagerWithPDPs(t)
	ip := netpkt.MustParseIPv4("10.0.0.2")
	port := uint16(22)
	if _, err := m.Insert(Rule{
		PDP:    "low",
		Action: ActionDeny,
		Src:    EndpointSpec{Host: "h1"},
		Dst:    EndpointSpec{IP: &ip, Port: &port},
	}); err != nil {
		t.Fatal(err)
	}
	f := flowBetween("h1", "h2")
	f.Dst.HasIP = true
	f.Dst.IP = ip
	f.Dst.HasPort = true
	f.Dst.Port = 22
	if d := m.Query(f); !d.Matched || d.Action != ActionDeny {
		t.Fatalf("decision = %+v", d)
	}
	f.Dst.Port = 443
	if d := m.Query(f); d.Matched {
		t.Fatalf("port 443 matched port-22 rule: %+v", d)
	}
}

func TestInsertConflictFlushesLowerPriority(t *testing.T) {
	m := newManagerWithPDPs(t)
	var mu sync.Mutex
	var flushed [][]RuleID
	m.SetFlushFunc(func(_ obs.SpanContext, ids []RuleID) {
		mu.Lock()
		defer mu.Unlock()
		flushed = append(flushed, ids)
	})
	lowID, err := m.Insert(Rule{PDP: "low", Action: ActionAllow, Src: EndpointSpec{Host: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	flushed = nil // ignore the insert's own default-deny flush
	mu.Unlock()

	// A higher-priority Deny overlapping the Allow must flush the Allow's
	// derived flow rules.
	if _, err := m.Insert(Rule{PDP: "high", Action: ActionDeny, Src: EndpointSpec{Host: "a"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(flushed) != 1 || len(flushed[0]) != 1 || flushed[0][0] != lowID {
		t.Fatalf("flushed = %v, want [[%d]]", flushed, lowID)
	}
	// The conflicting policy must remain stored.
	if _, ok := m.Get(lowID); !ok {
		t.Fatal("conflicting policy was removed from the database")
	}
}

func TestInsertAllowFlushesDefaultDeny(t *testing.T) {
	m := newManagerWithPDPs(t)
	var mu sync.Mutex
	var got []RuleID
	m.SetFlushFunc(func(_ obs.SpanContext, ids []RuleID) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, ids...)
	})
	if _, err := m.Insert(Rule{PDP: "low", Action: ActionAllow, Src: EndpointSpec{Host: "a"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, id := range got {
		if id == DefaultDenyID {
			found = true
		}
	}
	if !found {
		t.Fatalf("flush ids %v missing DefaultDenyID", got)
	}
}

func TestInsertDenyDoesNotFlushDefaultDeny(t *testing.T) {
	m := newManagerWithPDPs(t)
	var mu sync.Mutex
	var got []RuleID
	m.SetFlushFunc(func(_ obs.SpanContext, ids []RuleID) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, ids...)
	})
	if _, err := m.Insert(Rule{PDP: "low", Action: ActionDeny, Src: EndpointSpec{Host: "a"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range got {
		if id == DefaultDenyID {
			t.Fatal("deny insert flushed default-deny rules")
		}
	}
}

func TestNonOverlappingInsertNoFlush(t *testing.T) {
	m := newManagerWithPDPs(t)
	if _, err := m.Insert(Rule{PDP: "low", Action: ActionAllow, Src: EndpointSpec{Host: "a"}}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var notified [][]RuleID
	m.SetFlushFunc(func(_ obs.SpanContext, ids []RuleID) {
		mu.Lock()
		defer mu.Unlock()
		notified = append(notified, append([]RuleID(nil), ids...))
	})
	// Different host: no overlap with the Allow; Deny does not flush
	// default-deny either. Every insert still notifies (epoch observers
	// depend on it), but with zero rule ids — no flush work.
	if _, err := m.Insert(Rule{PDP: "high", Action: ActionDeny, Src: EndpointSpec{Host: "zzz"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(notified) != 1 {
		t.Fatalf("notifications = %d, want 1", len(notified))
	}
	if len(notified[0]) != 0 {
		t.Fatalf("flush ids = %v, want none", notified[0])
	}
}

// TestRevokeAll revokes every rule of one PDP in a single apply: the
// other PDP's rule stays, and the one flush names exactly the revoked ids,
// sorted, with a repeated id flushed once.
func TestRevokeAll(t *testing.T) {
	m := newManagerWithPDPs(t)
	var low []RuleID
	for i := 0; i < 5; i++ {
		id, err := m.Insert(Rule{PDP: "low", Action: ActionDeny})
		if err != nil {
			t.Fatal(err)
		}
		low = append(low, id)
	}
	if _, err := m.Insert(Rule{PDP: "high", Action: ActionDeny}); err != nil {
		t.Fatal(err)
	}
	var flushes [][]RuleID
	m.SetFlushFunc(func(_ obs.SpanContext, ids []RuleID) { flushes = append(flushes, ids) })
	revokes := []RuleID{low[3], low[0], low[4], low[1], low[2], low[3]}
	if _, _, err := m.ApplyCtx(obs.SpanContext{}, nil, revokes); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if len(flushes) != 1 || !slices.Equal(flushes[0], low) {
		t.Fatalf("flushes = %v, want one of %v", flushes, low)
	}
}

func TestRulesSnapshotOrdered(t *testing.T) {
	m := newManagerWithPDPs(t)
	for i := 0; i < 10; i++ {
		if _, err := m.Insert(Rule{PDP: "low", Action: ActionDeny}); err != nil {
			t.Fatal(err)
		}
	}
	rules := m.Rules()
	if len(rules) != 10 {
		t.Fatalf("len = %d", len(rules))
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].ID <= rules[i-1].ID {
			t.Fatal("rules not ordered by id")
		}
	}
}

func TestQueryChargesLatency(t *testing.T) {
	epoch := time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(epoch)
	m := NewManager(WithQueryLatency(clk, store.Fixed(2520*time.Microsecond)))
	if err := m.RegisterPDP("p", 1); err != nil {
		t.Fatal(err)
	}
	clk.Go(func() {
		m.Query(flowBetween("a", "b"))
	})
	end := clk.Run()
	if want := epoch.Add(2520 * time.Microsecond); !end.Equal(want) {
		t.Fatalf("clock = %v, want %v", end, want)
	}
}

func TestOverlapsWildcardAndValues(t *testing.T) {
	a := Rule{Action: ActionAllow, Src: EndpointSpec{Host: "h1"}}
	b := Rule{Action: ActionDeny, Src: EndpointSpec{Host: "h1"}, Dst: EndpointSpec{Host: "h2"}}
	c := Rule{Action: ActionDeny, Src: EndpointSpec{Host: "other"}}
	if !a.Overlaps(&b) || !b.Overlaps(&a) {
		t.Fatal("a and b should overlap")
	}
	if a.Overlaps(&c) {
		t.Fatal("a and c should not overlap")
	}
	d := Rule{Props: FlowProperties{IPProto: propU8(netpkt.ProtoTCP)}}
	e := Rule{Props: FlowProperties{IPProto: propU8(netpkt.ProtoUDP)}}
	if d.Overlaps(&e) {
		t.Fatal("TCP and UDP rules should not overlap")
	}
}

func TestRuleString(t *testing.T) {
	ip := netpkt.MustParseIPv4("10.0.0.1")
	r := Rule{ID: 3, PDP: "p", Priority: 7, Action: ActionAllow,
		Src: EndpointSpec{User: "alice", IP: &ip}, Dst: EndpointSpec{Host: "mail"}}
	s := r.String()
	for _, want := range []string{"alice", "10.0.0.1", "mail", "Allow", "#3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func propU16(v uint16) *uint16 { return &v }

func propU8(v uint8) *uint8 { return &v }
