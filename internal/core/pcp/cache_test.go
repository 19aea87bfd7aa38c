package pcp

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
)

// allowHostA inserts an Allow rule for src host "a" and binds ipA/macA to
// that host, so synFrame() flows are allowed through the full path.
func allowHostA(t *testing.T, erm *entity.Manager, pm *policy.Manager) policy.RuleID {
	t.Helper()
	erm.BindIPMAC(ipA, macA)
	erm.BindHostIP("a", ipA)
	id, err := pm.Insert(policy.Rule{PDP: "t", Action: policy.ActionAllow, Src: policy.EndpointSpec{Host: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestCacheHitSkipsBindingAndPolicyQueries(t *testing.T) {
	p, erm, pm, sw := newEnv(t)
	allowHostA(t, erm, pm)
	base := sw.count() // the insert's conflict flush already sent a delete

	d1 := process(t, p, packetInFor(synFrame(), 3))
	d2 := process(t, p, packetInFor(synFrame(), 3))
	if !d1.Allow || !d2.Allow || d1.RuleID != d2.RuleID {
		t.Fatalf("decisions differ: %+v vs %+v", d1, d2)
	}
	m := p.Metrics()
	if m.CacheHits() != 1 || m.CacheMisses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", m.CacheHits(), m.CacheMisses())
	}
	// Only the miss paid the binding and policy round trips.
	if m.BindingQuery.N() != 1 || m.PolicyQuery.N() != 1 {
		t.Fatalf("binding/policy samples = %d/%d, want 1/1", m.BindingQuery.N(), m.PolicyQuery.N())
	}
	// The hit still (re)installs the switch rule: a cache hit means the
	// flow re-entered the control plane, so its table-0 rule is gone.
	if got := sw.count() - base; got != 2 {
		t.Fatalf("flow-mods = %d, want 2", got)
	}
}

func TestCacheKeyedOnPortAndFlow(t *testing.T) {
	p, erm, pm, _ := newEnv(t)
	allowHostA(t, erm, pm)

	process(t, p, packetInFor(synFrame(), 3))
	process(t, p, packetInFor(synFrame(), 4)) // same flow, different ingress port
	other := netpkt.BuildTCP(macA, macB, ipA, ipB,
		&netpkt.TCPSegment{SrcPort: 40001, DstPort: 445, Flags: netpkt.TCPSyn})
	process(t, p, packetInFor(other, 4)) // different flow
	if hits := p.Metrics().CacheHits(); hits != 0 {
		t.Fatalf("distinct keys produced %d cache hits", hits)
	}
}

// TestRevokeInvalidatesCachedAllow is the paper's core consistency
// property at the cache layer: once Revoke has returned (and the flush has
// run), the next admission of the formerly-allowed flow must re-evaluate
// and deny.
func TestRevokeInvalidatesCachedAllow(t *testing.T) {
	p, erm, pm, _ := newEnv(t)
	id := allowHostA(t, erm, pm)

	if d := process(t, p, packetInFor(synFrame(), 3)); !d.Allow {
		t.Fatalf("primed decision = %+v", d)
	}
	if err := pm.Revoke(id); err != nil {
		t.Fatal(err)
	}
	d := process(t, p, packetInFor(synFrame(), 3))
	if d.Allow {
		t.Fatal("revoked rule's allow served from cache")
	}
	if hits := p.Metrics().CacheHits(); hits != 0 {
		t.Fatalf("post-revoke admission was a cache hit (%d)", hits)
	}
}

// TestInsertInvalidatesCachedDefaultDeny: a cached default deny must not
// outlive a newly inserted Allow that covers the flow (the conflicting-
// insert half of the flush machinery).
func TestInsertInvalidatesCachedDefaultDeny(t *testing.T) {
	p, erm, pm, _ := newEnv(t)
	if d := process(t, p, packetInFor(synFrame(), 3)); d.Allow {
		t.Fatalf("unexpected allow: %+v", d)
	}
	allowHostA(t, erm, pm)
	if d := process(t, p, packetInFor(synFrame(), 3)); !d.Allow {
		t.Fatalf("cached default deny outlived the new Allow rule: %+v", d)
	}
}

// TestBindingChangeInvalidatesCachedDecision: revoking an identifier
// binding (user logoff) must invalidate decisions that depended on it,
// with no policy-database event at all.
func TestBindingChangeInvalidatesCachedDecision(t *testing.T) {
	p, erm, pm, _ := newEnv(t)
	erm.BindIPMAC(ipA, macA)
	erm.BindHostIP("a", ipA)
	erm.BindUserHost("alice", "a")
	if _, err := pm.Insert(policy.Rule{PDP: "t", Action: policy.ActionAllow, Src: policy.EndpointSpec{User: "alice"}}); err != nil {
		t.Fatal(err)
	}
	if d := process(t, p, packetInFor(synFrame(), 3)); !d.Allow {
		t.Fatalf("alice's flow denied: %+v", d)
	}
	erm.UnbindUserHost("alice", "a")
	if d := process(t, p, packetInFor(synFrame(), 3)); d.Allow {
		t.Fatal("cached allow survived the logoff binding change")
	}
}

// TestEpochPublishedBeforeFlush pins the invalidation ordering the safety
// argument rests on: when the flush notification for a mutation runs, the
// new policy epoch is already visible, so no decision cached under the old
// epoch can validate after its switch rules are flushed.
func TestEpochPublishedBeforeFlush(t *testing.T) {
	p, erm, pm, _ := newEnv(t)
	id := allowHostA(t, erm, pm)
	epochAfterInsert := pm.Epoch()
	var observed []uint64
	pm.SetFlushFunc(func(sc obs.SpanContext, ids []policy.RuleID) {
		observed = append(observed, pm.Epoch())
		p.FlushPolicies(sc, ids)
	})
	if err := pm.Revoke(id); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 1 || observed[0] != epochAfterInsert+1 {
		t.Fatalf("flush saw epochs %v, want [%d]", observed, epochAfterInsert+1)
	}
}

// TestStaleStoreNeverValidates drives the cache through the revoke-races-
// in-flight-decision interleaving deterministically: an entry stored with
// pre-mutation epochs (the in-flight Process lost the race) must never be
// served once the current epochs have moved on, and is evicted on first
// lookup.
func TestStaleStoreNeverValidates(t *testing.T) {
	c := newDecisionCache(64)
	ck := cacheKey{dpid: 7, inPort: 3}
	// In-flight decision derived at epochs (1,1); revoke bumps policy to 2
	// before the store lands.
	c.store(ck, Decision{Allow: true, RuleID: 42}, 1, 1)
	if _, ok, stale := c.lookup(ck, 2, 1); ok {
		t.Fatal("stale allow validated after policy epoch bump")
	} else if !stale {
		t.Fatal("epoch-invalidated eviction not reported as stale")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry not evicted: len=%d", c.len())
	}
	// A plain miss (no entry at all) must not read as stale.
	if _, ok, stale := c.lookup(ck, 2, 1); ok || stale {
		t.Fatalf("empty lookup: ok=%v stale=%v, want miss", ok, stale)
	}
	// Same for the entity epoch.
	c.store(ck, Decision{Allow: true, RuleID: 42}, 2, 1)
	if _, ok, stale := c.lookup(ck, 2, 2); ok {
		t.Fatal("stale allow validated after entity epoch bump")
	} else if !stale {
		t.Fatal("entity-epoch eviction not reported as stale")
	}
}

// TestRevokeRacingProcessNeverLeavesStaleAllow hammers Process from
// several goroutines while the main goroutine inserts and revokes the
// allow rule; after every Revoke returns, the next admission must deny.
// Run under -race this also exercises the snapshot/cache memory ordering.
func TestRevokeRacingProcessNeverLeavesStaleAllow(t *testing.T) {
	p, erm, pm, _ := newEnv(t)
	erm.BindIPMAC(ipA, macA)
	erm.BindHostIP("a", ipA)

	frame := synFrame()
	for round := 0; round < 30; round++ {
		id, err := pm.Insert(policy.Rule{PDP: "t", Action: policy.ActionAllow, Src: policy.EndpointSpec{Host: "a"}})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						p.Process(&Request{DPID: 7, PacketIn: packetInFor(frame, 3)})
					}
				}
			}()
		}
		if err := pm.Revoke(id); err != nil {
			t.Fatal(err)
		}
		// Revoke has returned: policy epoch is bumped and the flush has
		// run, so this admission must observe the revocation.
		var dec Decision
		p.Process(&Request{DPID: 7, PacketIn: packetInFor(frame, 3), Done: func(d Decision) { dec = d }})
		if dec.Allow {
			t.Fatalf("round %d: allow served after Revoke returned", round)
		}
		close(stop)
		wg.Wait()
	}
}

func TestCacheDisabled(t *testing.T) {
	erm := entity.NewManager()
	pm := policy.NewManager()
	p := New(Config{Entity: erm, Policy: pm, FlowCacheSize: -1})
	if err := pm.RegisterPDP("t", 50); err != nil {
		t.Fatal(err)
	}
	process(t, p, packetInFor(synFrame(), 3))
	process(t, p, packetInFor(synFrame(), 3))
	m := p.Metrics()
	if m.CacheHits() != 0 || m.CacheMisses() != 2 {
		t.Fatalf("disabled cache recorded hits/misses = %d/%d", m.CacheHits(), m.CacheMisses())
	}
}

func TestCacheLRUBounded(t *testing.T) {
	erm := entity.NewManager()
	pm := policy.NewManager()
	p := New(Config{Entity: erm, Policy: pm, FlowCacheSize: 16})
	if err := pm.RegisterPDP("t", 50); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		frame := netpkt.BuildTCP(macA, macB, ipA, ipB,
			&netpkt.TCPSegment{SrcPort: uint16(30000 + i), DstPort: 80, Flags: netpkt.TCPSyn})
		process(t, p, packetInFor(frame, 3))
	}
	if n := p.cache.len(); n > 16 {
		t.Fatalf("cache grew to %d entries, cap 16", n)
	}
}

// TestCacheShardSpread: one client opening many connections to one service
// varies only IPSrc and L4Src. Those keys must spread over every shard,
// none holding more than twice its fair share, or the LRU degenerates to
// one 1/16-size shard for that client.
func TestCacheShardSpread(t *testing.T) {
	c := newDecisionCache(4096)
	rng := rand.New(rand.NewSource(11))
	counts := make(map[*cacheShard]int)
	const keys = 4096
	for i := 0; i < keys; i++ {
		ck := cacheKey{dpid: 7, inPort: 3, key: netpkt.FlowKey{
			EthSrc: macA, EthDst: macB, EtherType: netpkt.EtherTypeIPv4,
			HasIP: true, HasL4: true, IPProto: netpkt.ProtoTCP,
			IPSrc: netpkt.IPv4{10, 0, byte(rng.Intn(256)), byte(rng.Intn(256))}, IPDst: ipB,
			L4Src: uint16(1024 + rng.Intn(64512)), L4Dst: 445,
		}}
		counts[c.shardOf(&ck)]++
	}
	if len(counts) != cacheShards {
		t.Fatalf("keys reached %d of %d shards", len(counts), cacheShards)
	}
	limit := 2 * keys / cacheShards
	for i := range c.shards {
		if n := counts[&c.shards[i]]; n > limit {
			t.Errorf("shard %d holds %d keys, above twice the mean (%d)", i, n, limit)
		}
	}
}
