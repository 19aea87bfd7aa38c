package switchsim

import (
	"sort"
	"time"

	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

// flowEntry is one installed flow rule.
type flowEntry struct {
	match        *openflow.Match
	priority     uint16
	cookie       uint64
	idleTimeout  time.Duration // zero = none
	hardTimeout  time.Duration // zero = none
	flags        uint16
	instructions []openflow.Instruction

	installedAt time.Time
	lastMatched time.Time
	seq         uint64
	packets     uint64
	bytes       uint64
}

func (e *flowEntry) expired(now time.Time) (bool, uint8) {
	if e.hardTimeout > 0 && !now.Before(e.installedAt.Add(e.hardTimeout)) {
		return true, openflow.FlowRemovedHardTimeout
	}
	if e.idleTimeout > 0 && !now.Before(e.lastMatched.Add(e.idleTimeout)) {
		return true, openflow.FlowRemovedIdleTimeout
	}
	return false, 0
}

// deadline returns when e expires unless traffic refreshes it, and false
// when it has no timeout. e is expired at now iff !now.Before(deadline).
func (e *flowEntry) deadline() (time.Time, bool) {
	var d time.Time
	ok := false
	if e.hardTimeout > 0 {
		d, ok = e.installedAt.Add(e.hardTimeout), true
	}
	if e.idleTimeout > 0 {
		if idle := e.lastMatched.Add(e.idleTimeout); !ok || idle.Before(d) {
			d = idle
		}
		ok = true
	}
	return d, ok
}

// exactKind distinguishes the canonical fully-pinned match shapes that
// ExactMatchFor produces, so exact entries can live in a hash index (the
// software analogue of a TCAM exact-match partition).
type exactKind uint8

const (
	kindNone exactKind = iota // not a canonical exact match
	kindTCP
	kindUDP
	kindIPOther
	kindARP
	kindEthOnly
)

// exactKey is the hash-index key for canonical exact matches.
type exactKey struct {
	kind    exactKind
	inPort  uint32
	ethSrc  netpkt.MAC
	ethDst  netpkt.MAC
	ethType uint16
	ipProto uint8
	ipSrc   netpkt.IPv4
	ipDst   netpkt.IPv4
	l4Src   uint16
	l4Dst   uint16
}

// exactKeyForMatch classifies a match: if it pins exactly the canonical
// field set for some packet shape it returns the index key, else kindNone.
func exactKeyForMatch(m *openflow.Match) exactKey {
	if m.InPort == nil || m.EthSrc == nil || m.EthDst == nil || m.EthType == nil {
		return exactKey{}
	}
	k := exactKey{
		inPort:  *m.InPort,
		ethSrc:  *m.EthSrc,
		ethDst:  *m.EthDst,
		ethType: *m.EthType,
	}
	nIP := m.IPProto != nil || m.IPv4Src != nil || m.IPv4Dst != nil
	nL4 := m.TCPSrc != nil || m.TCPDst != nil || m.UDPSrc != nil || m.UDPDst != nil
	nARP := m.ARPSPA != nil || m.ARPTPA != nil

	switch {
	case *m.EthType == netpkt.EtherTypeIPv4 && m.IPProto != nil && m.IPv4Src != nil && m.IPv4Dst != nil && !nARP:
		k.ipProto = *m.IPProto
		k.ipSrc = *m.IPv4Src
		k.ipDst = *m.IPv4Dst
		switch {
		case *m.IPProto == netpkt.ProtoTCP && m.TCPSrc != nil && m.TCPDst != nil && m.UDPSrc == nil && m.UDPDst == nil:
			k.kind = kindTCP
			k.l4Src = *m.TCPSrc
			k.l4Dst = *m.TCPDst
		case *m.IPProto == netpkt.ProtoUDP && m.UDPSrc != nil && m.UDPDst != nil && m.TCPSrc == nil && m.TCPDst == nil:
			k.kind = kindUDP
			k.l4Src = *m.UDPSrc
			k.l4Dst = *m.UDPDst
		case !nL4 && *m.IPProto != netpkt.ProtoTCP && *m.IPProto != netpkt.ProtoUDP:
			k.kind = kindIPOther
		default:
			return exactKey{}
		}
	case *m.EthType == netpkt.EtherTypeARP && m.ARPSPA != nil && m.ARPTPA != nil && !nIP && !nL4:
		k.kind = kindARP
		k.ipSrc = *m.ARPSPA
		k.ipDst = *m.ARPTPA
	case !nIP && !nL4 && !nARP && *m.EthType != netpkt.EtherTypeIPv4 && *m.EthType != netpkt.EtherTypeARP:
		k.kind = kindEthOnly
	default:
		return exactKey{}
	}
	return k
}

// exactKeyForPacket derives the canonical key a packet would be stored
// under, mirroring ExactMatchFor.
func exactKeyForPacket(fk netpkt.FlowKey, inPort uint32) exactKey {
	k := exactKey{
		inPort:  inPort,
		ethSrc:  fk.EthSrc,
		ethDst:  fk.EthDst,
		ethType: fk.EtherType,
	}
	switch {
	case fk.EtherType == netpkt.EtherTypeIPv4 && fk.HasIP:
		k.ipProto = fk.IPProto
		k.ipSrc = fk.IPSrc
		k.ipDst = fk.IPDst
		switch {
		case fk.HasL4 && fk.IPProto == netpkt.ProtoTCP:
			k.kind = kindTCP
			k.l4Src = fk.L4Src
			k.l4Dst = fk.L4Dst
		case fk.HasL4 && fk.IPProto == netpkt.ProtoUDP:
			k.kind = kindUDP
			k.l4Src = fk.L4Src
			k.l4Dst = fk.L4Dst
		default:
			k.kind = kindIPOther
		}
	case fk.EtherType == netpkt.EtherTypeARP && fk.HasIP:
		k.kind = kindARP
		k.ipSrc = fk.IPSrc
		k.ipDst = fk.IPDst
	default:
		k.kind = kindEthOnly
	}
	return k
}

// table is one flow table. Canonical exact-match entries (the shape DFI's
// PCP compiles) live in a hash index; everything else is a priority-sorted
// linear list, as in a TCAM.
type table struct {
	id    uint8
	wild  []*flowEntry // sorted by (priority desc, seq asc)
	exact map[exactKey]*flowEntry

	// lookups/matches feed OFPMP_TABLE statistics; guarded by the
	// switch's table mutex like everything else here.
	lookups uint64
	matches uint64

	// due is a lower bound on the earliest deadline of any entry, zero
	// when no entry has a timeout. Traffic only moves idle deadlines later
	// and removals only raise the true minimum, so the bound stays valid
	// until add lowers it or expire recomputes it.
	due time.Time
	// scanned counts entries visited by expiry scans.
	scanned uint64
}

func newTable(id uint8) *table {
	return &table{id: id, exact: make(map[exactKey]*flowEntry)}
}

func (t *table) size() int { return len(t.wild) + len(t.exact) }

func (t *table) sortWild() {
	sort.SliceStable(t.wild, func(i, j int) bool {
		if t.wild[i].priority != t.wild[j].priority {
			return t.wild[i].priority > t.wild[j].priority
		}
		return t.wild[i].seq < t.wild[j].seq
	})
}

// lookup returns the highest-priority live entry matching the packet.
func (t *table) lookup(k netpkt.FlowKey, inPort uint32, now time.Time) *flowEntry {
	t.lookups++
	var best *flowEntry
	if e, ok := t.exact[exactKeyForPacket(k, inPort)]; ok {
		if dead, _ := e.expired(now); !dead {
			best = e
		}
	}
	for _, e := range t.wild {
		if best != nil && (e.priority < best.priority ||
			(e.priority == best.priority && e.seq > best.seq)) {
			break
		}
		if dead, _ := e.expired(now); dead {
			continue
		}
		if e.match.MatchesKey(k, inPort) {
			t.matches++
			return e
		}
	}
	if best != nil {
		t.matches++
	}
	return best
}

// add inserts an entry, replacing any existing entry with an identical
// match and priority (OpenFlow add semantics).
func (t *table) add(e *flowEntry) {
	t.lowerDue(e)
	if key := exactKeyForMatch(e.match); key.kind != kindNone {
		if old, ok := t.exact[key]; ok && old.priority != e.priority {
			// Same match at a different priority cannot share the index
			// slot; demote the newcomer to the linear list.
			t.addWild(e)
			return
		}
		t.exact[key] = e
		return
	}
	t.addWild(e)
}

func (t *table) addWild(e *flowEntry) {
	for i, old := range t.wild {
		if old.priority == e.priority && old.match.Equal(e.match) {
			t.wild[i] = e
			t.sortWild()
			return
		}
	}
	t.wild = append(t.wild, e)
	t.sortWild()
}

// cookieMatches applies the flow-mod cookie/cookie_mask filter.
func cookieMatches(e *flowEntry, cookie, mask uint64) bool {
	return mask == 0 || e.cookie&mask == cookie&mask
}

// removeWhere deletes entries satisfying pred, returning them.
func (t *table) removeWhere(pred func(*flowEntry) bool) []*flowEntry {
	var removed []*flowEntry
	kept := t.wild[:0]
	for _, e := range t.wild {
		if pred(e) {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(t.wild); i++ {
		t.wild[i] = nil
	}
	t.wild = kept
	for key, e := range t.exact {
		if pred(e) {
			removed = append(removed, e)
			delete(t.exact, key)
		}
	}
	return removed
}

// lowerDue lowers the deadline bound to cover e.
func (t *table) lowerDue(e *flowEntry) {
	if d, ok := e.deadline(); ok && (t.due.IsZero() || d.Before(t.due)) {
		t.due = d
	}
}

// expire removes and returns the entries expired at now. Until the
// deadline bound is reached no entry can have expired, so it returns
// without visiting any; otherwise it scans the table and recomputes the
// bound from the survivors.
func (t *table) expire(now time.Time) []*flowEntry {
	if t.due.IsZero() || now.Before(t.due) {
		return nil
	}
	t.due = time.Time{}
	return t.removeWhere(func(e *flowEntry) bool {
		t.scanned++
		if dead, _ := e.expired(now); dead {
			return true
		}
		t.lowerDue(e)
		return false
	})
}

// forEach visits every entry.
func (t *table) forEach(fn func(*flowEntry)) {
	for _, e := range t.wild {
		fn(e)
	}
	for _, e := range t.exact {
		fn(e)
	}
}

// modifyWhere updates instructions on entries satisfying pred.
func (t *table) modifyWhere(pred func(*flowEntry) bool, instrs []openflow.Instruction) {
	t.forEach(func(e *flowEntry) {
		if pred(e) {
			e.instructions = instrs
		}
	})
}
