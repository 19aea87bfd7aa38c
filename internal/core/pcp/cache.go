package pcp

import (
	"sync"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// Flow-decision cache: the third layer of the admission fast path. A flow
// that re-enters the control plane (its switch rule idle-timed out, or it
// arrived at another PCP worker) with unchanged policy and unchanged
// identifier bindings must receive the same decision as last time, so the
// binding query and policy query can both be skipped.
//
// Correctness rests on two epochs validated at lookup time:
//
//   - the policy epoch, bumped by the Policy Manager on every insert,
//     revoke and revoke-all — before the corresponding flush notification
//     fires (manager.go), so once FlushPolicies has removed a revoked
//     rule's flow rules from the switches, no cached decision made under
//     that rule can validate again;
//   - the entity epoch, bumped by the Entity Resolution Manager on every
//     effective binding change, so decisions derived from since-changed
//     user/host/IP/MAC/location bindings never validate again.
//
// Entries store the epochs observed *before* their decision's queries ran:
// if a policy or binding change races the in-flight decision, the stored
// epoch is older than the current one and the entry self-invalidates on
// its first lookup. A stale allow therefore cannot outlive a revocation —
// the paper's core consistency property (§III-B) — while a hit costs two
// atomic loads and one shard-local map probe.

// cacheKey identifies one flow at one ingress point.
type cacheKey struct {
	dpid   uint64
	inPort uint32
	key    netpkt.FlowKey
}

// cacheEntry is one cached decision plus its LRU list links.
type cacheEntry struct {
	ck          cacheKey
	ruleID      policy.RuleID
	allow       bool
	policyEpoch uint64
	entityEpoch uint64

	prev, next *cacheEntry
}

// cacheShards is 1<<cacheShardBits: shardOf takes the hash's top bits.
const (
	cacheShardBits = 4
	cacheShards    = 1 << cacheShardBits
)

// decisionCache is a sharded LRU of admission decisions. Sharding keeps
// the hot path contention-free across the PCP's worker pool: each probe
// takes only its shard's lock.
type decisionCache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*cacheEntry
	// Intrusive LRU list: head is most recent, tail least.
	head, tail *cacheEntry
}

// newDecisionCache returns a cache bounded to size entries in total.
func newDecisionCache(size int) *decisionCache {
	perShard := size / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &decisionCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].entries = make(map[cacheKey]*cacheEntry, perShard)
	}
	return c
}

// shardOf hashes the key to a shard: FNV-1a over its fixed-width fields,
// then a murmur3 finalizer, then the top bits. FNV's xor-then-multiply
// carries bits only upward, so without the finalizer the low bits of h
// would depend only on the low bits of each mixed word, and fields packed
// into high bits (IPSrc, L4Src) would never choose the shard.
func (c *decisionCache) shardOf(ck *cacheKey) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(ck.dpid)
	mix(uint64(ck.inPort))
	k := &ck.key
	mix(uint64(k.EthSrc[0])<<40 | uint64(k.EthSrc[1])<<32 | uint64(k.EthSrc[2])<<24 |
		uint64(k.EthSrc[3])<<16 | uint64(k.EthSrc[4])<<8 | uint64(k.EthSrc[5]))
	mix(uint64(k.EthDst[0])<<40 | uint64(k.EthDst[1])<<32 | uint64(k.EthDst[2])<<24 |
		uint64(k.EthDst[3])<<16 | uint64(k.EthDst[4])<<8 | uint64(k.EthDst[5]))
	mix(uint64(k.EtherType))
	mix(uint64(k.IPSrc.Uint32())<<32 | uint64(k.IPDst.Uint32()))
	mix(uint64(k.IPProto)<<32 | uint64(k.L4Src)<<16 | uint64(k.L4Dst))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return &c.shards[h>>(64-cacheShardBits)]
}

// lookup returns the cached decision for ck when its recorded epochs still
// match the current ones; a stale entry is evicted on the spot, which the
// third return reports so the PCP can count epoch invalidations separately
// from plain misses.
//
//dfi:hotpath
func (c *decisionCache) lookup(ck cacheKey, policyEpoch, entityEpoch uint64) (dec Decision, ok, stale bool) {
	s := c.shardOf(&ck)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.entries[ck]
	if !found {
		return Decision{}, false, false
	}
	if e.policyEpoch != policyEpoch || e.entityEpoch != entityEpoch {
		s.remove(e)
		return Decision{}, false, true
	}
	s.moveToFront(e)
	return Decision{Allow: e.allow, RuleID: e.ruleID}, true, false
}

// store records a decision made under the given epochs, evicting the least
// recently used entry when the shard is full.
func (c *decisionCache) store(ck cacheKey, dec Decision, policyEpoch, entityEpoch uint64) {
	s := c.shardOf(&ck)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[ck]; ok {
		e.ruleID = dec.RuleID
		e.allow = dec.Allow
		e.policyEpoch = policyEpoch
		e.entityEpoch = entityEpoch
		s.moveToFront(e)
		return
	}
	for len(s.entries) >= s.cap && s.tail != nil {
		s.remove(s.tail)
	}
	e := &cacheEntry{
		ck: ck, ruleID: dec.RuleID, allow: dec.Allow,
		policyEpoch: policyEpoch, entityEpoch: entityEpoch,
	}
	s.entries[ck] = e
	s.pushFront(e)
}

// len returns the total number of live entries (for tests).
func (c *decisionCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) remove(e *cacheEntry) {
	s.unlink(e)
	delete(s.entries, e.ck)
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
