package pcp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

// batchSwitch is a SwitchClient that also implements FlowModBatcher,
// recording how the PCP delivered flow-mods (batched vs one at a time)
// and how many switches were being written concurrently.
type batchSwitch struct {
	mu      sync.Mutex
	batches [][]uint64 // cookies per WriteFlowMods call
	singles int        // WriteFlowMod calls

	delay time.Duration

	// Shared across all switches in a test to observe fan-out overlap.
	inflight    *atomic.Int32
	maxInflight *atomic.Int32
}

func (s *batchSwitch) WriteFlowMod(*openflow.FlowMod) error {
	s.mu.Lock()
	s.singles++
	s.mu.Unlock()
	return nil
}

func (s *batchSwitch) WriteFlowMods(fms []*openflow.FlowMod) error {
	if s.inflight != nil {
		n := s.inflight.Add(1)
		for {
			m := s.maxInflight.Load()
			if n <= m || s.maxInflight.CompareAndSwap(m, n) {
				break
			}
		}
		defer s.inflight.Add(-1)
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	cookies := make([]uint64, len(fms))
	for i, fm := range fms {
		cookies[i] = fm.Cookie
	}
	s.mu.Lock()
	s.batches = append(s.batches, cookies)
	s.mu.Unlock()
	return nil
}

func newFlushEnv(t testing.TB, nSwitches int, delay time.Duration) (*PCP, []*batchSwitch) {
	t.Helper()
	p := New(Config{
		Entity: entity.NewManager(),
		Policy: policy.NewManager(),
	})
	var inflight, maxInflight atomic.Int32
	sws := make([]*batchSwitch, nSwitches)
	for i := range sws {
		sws[i] = &batchSwitch{delay: delay, inflight: &inflight, maxInflight: &maxInflight}
		p.AttachSwitch(uint64(i+1), sws[i])
	}
	return p, sws
}

// TestFlushPoliciesUsesBatcher: when a switch client supports batched
// writes, the flush delivers all compiled deletes in one WriteFlowMods call
// and never falls back to per-mod writes.
func TestFlushPoliciesUsesBatcher(t *testing.T) {
	p, sws := newFlushEnv(t, 3, 0)
	p.FlushPolicies(obs.SpanContext{}, []policy.RuleID{5, 9, 11})
	for i, sw := range sws {
		if sw.singles != 0 {
			t.Fatalf("switch %d: %d per-mod writes, want 0 (batcher available)", i, sw.singles)
		}
		if len(sw.batches) != 1 {
			t.Fatalf("switch %d: %d batch writes, want 1", i, len(sw.batches))
		}
		if got := sw.batches[0]; len(got) != 3 || got[0] != 5 || got[1] != 9 || got[2] != 11 {
			t.Fatalf("switch %d: batch cookies = %v", i, got)
		}
	}
}

// TestFlushPoliciesParallelFanOut: with the flushFanOut worker bound, a flush
// across many slow switches overlaps their writes while still reaching all
// of them before returning (the flush is synchronous).
func TestFlushPoliciesParallelFanOut(t *testing.T) {
	p, sws := newFlushEnv(t, 32, 2*time.Millisecond)
	p.FlushPolicies(obs.SpanContext{}, []policy.RuleID{5, 9})
	for i, sw := range sws {
		if len(sw.batches) != 1 || len(sw.batches[0]) != 2 {
			t.Fatalf("switch %d: batches = %v", i, sw.batches)
		}
	}
	if max := sws[0].maxInflight.Load(); max < 2 {
		t.Fatalf("parallel flush never overlapped (max inflight %d)", max)
	}
	if max := sws[0].maxInflight.Load(); max > flushFanOut {
		t.Fatalf("fan-out exceeded worker bound: %d", max)
	}
}

// benchmarkFlushFanOut measures one synchronous FlushPolicies across
// nSwitches switches whose batch write costs ~200µs (a realistic TCP
// write+ack RTT) under the bounded fan-out. The paper's revocation latency
// (time-to-enforcement) is dominated by this fan-out at scale.
func benchmarkFlushFanOut(b *testing.B, nSwitches int) {
	const perSwitch = 200 * time.Microsecond
	ids := []policy.RuleID{5, 9, 11}
	p, _ := newFlushEnv(b, nSwitches, perSwitch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FlushPolicies(obs.SpanContext{}, ids)
	}
}

func BenchmarkFlushFanOut_1Switches(b *testing.B)  { benchmarkFlushFanOut(b, 1) }
func BenchmarkFlushFanOut_8Switches(b *testing.B)  { benchmarkFlushFanOut(b, 8) }
func BenchmarkFlushFanOut_32Switches(b *testing.B) { benchmarkFlushFanOut(b, 32) }

// newPolicyEnv is newFlushEnv with PDPs "low" (priority 10) and "high"
// (priority 20) registered, so tests can drive flushes through policy
// mutations.
func newPolicyEnv(t testing.TB, nSwitches int) (*PCP, *policy.Manager, []*batchSwitch) {
	t.Helper()
	p, sws := newFlushEnv(t, nSwitches, 0)
	registerOraclePDPs(t, p.cfg.Policy)
	return p, p.cfg.Policy, sws
}

// modsWritten counts every flow mod delivered to a switch so far, batched
// or not.
func modsWritten(sw *batchSwitch) int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	n := sw.singles
	for _, b := range sw.batches {
		n += len(b)
	}
	return n
}

// TestFlushPoliciesEmptyIdsNoWrites: the Policy Manager notifies the flush
// hook on every mutation — including ones that invalidate nothing — and
// the flush must write nothing for an empty id list instead of fanning out
// empty batches.
func TestFlushPoliciesEmptyIdsNoWrites(t *testing.T) {
	p, pm, sws := newPolicyEnv(t, 3)
	p.FlushPolicies(obs.SpanContext{}, nil)
	p.FlushPolicies(obs.SpanContext{}, []policy.RuleID{})
	// A deny insert overlapping nothing flushes an empty id list end to end.
	if _, err := pm.Insert(policy.Rule{PDP: "low", Action: policy.ActionDeny, Src: policy.EndpointSpec{Host: "h9"}}); err != nil {
		t.Fatal(err)
	}
	for i, sw := range sws {
		if n := modsWritten(sw); n != 0 {
			t.Fatalf("switch %d: %d flow mods written for empty flushes, want 0", i, n)
		}
		sw.mu.Lock()
		batches := len(sw.batches)
		sw.mu.Unlock()
		if batches != 0 {
			t.Fatalf("switch %d: %d batch calls for empty flushes, want 0", i, batches)
		}
	}
}

// seedDenyRules inserts n distinct deny rules (one pinned source IP each)
// under the "low" PDP.
func seedDenyRules(t testing.TB, pm *policy.Manager, n int) []policy.RuleID {
	t.Helper()
	ids := make([]policy.RuleID, 0, n)
	for i := 0; i < n; i++ {
		ip := netpkt.IPv4FromUint32(0x0a010000 + uint32(i))
		id, err := pm.Insert(policy.Rule{PDP: "low", Action: policy.ActionDeny, Src: policy.EndpointSpec{IP: &ip}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestDeltaRevocationSingleCookieDelete: revoking one rule emits exactly
// one cookie-scoped delete per switch, regardless of policy size.
func TestDeltaRevocationSingleCookieDelete(t *testing.T) {
	p, pm, sws := newPolicyEnv(t, 2)
	defer p.Stop()
	ids := seedDenyRules(t, pm, 50)
	before := modsWritten(sws[0])
	if err := pm.Revoke(ids[17]); err != nil {
		t.Fatal(err)
	}
	for i, sw := range sws {
		if n := modsWritten(sw) - before; n != 1 {
			t.Fatalf("switch %d: revocation wrote %d mods, want 1", i, n)
		}
		sw.mu.Lock()
		last := sw.batches[len(sw.batches)-1]
		sw.mu.Unlock()
		if len(last) != 1 || last[0] != uint64(ids[17]) {
			t.Fatalf("switch %d: revocation batch cookies = %v, want [%d]", i, last, ids[17])
		}
	}
}
