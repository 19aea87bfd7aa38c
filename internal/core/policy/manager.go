package policy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

// Decision is the Policy Manager's answer for one queried flow.
type Decision struct {
	Action Action
	// Rule is the winning rule, nil when no rule matched (default deny).
	// It points into the immutable policy snapshot that produced the
	// decision: callers must not modify it, and may retain it safely (a
	// later policy change builds a new snapshot rather than mutating
	// this one).
	Rule *Rule
	// Matched reports whether any rule matched.
	Matched bool
	// Epoch is the policy epoch of the snapshot that produced this
	// decision (see Manager.Epoch); the PCP's flow-decision cache uses it
	// to detect staleness.
	Epoch uint64
}

// FlushFunc is notified once after every policy mutation with the sorted,
// duplicate-free ids of policy rules whose derived flow rules must be
// removed from the switches (paper §III-B: on conflicting insert and on
// revocation). The ids slice may be empty: an insert that conflicts with
// nothing still advances the epoch.
// The PCP registers one of these. sc is the span context of the mutation
// that triggered the flush (zero when the mutation was untraced), so flush
// compilation and the resulting flow-mod writes join the mutation's causal
// trace.
type FlushFunc func(sc obs.SpanContext, ids []RuleID)

// Errors callers can match.
var (
	// ErrUnknownPDP reports a rule from an unregistered PDP.
	ErrUnknownPDP = errors.New("policy: unknown PDP")
	// ErrUnknownRule reports a revocation for an id that does not exist.
	ErrUnknownRule = errors.New("policy: unknown rule")
	// ErrDuplicatePriority reports a PDP registration reusing a priority.
	ErrDuplicatePriority = errors.New("policy: priority already in use")
	// ErrDuplicatePDP reports a PDP registered twice.
	ErrDuplicatePDP = errors.New("policy: PDP already registered")
)

// Manager is DFI's Policy Manager: it receives policy rules and revocations
// from PDPs, performs consistency checks, stores the current global policy,
// and answers per-flow queries from the PCP.
//
// Reads and writes are decoupled copy-on-write: mutations build a fresh
// immutable Snapshot under the write lock and publish it atomically, so
// Query (the admission hot path) runs lock-free against whichever snapshot
// is current. Every published snapshot carries a strictly increasing epoch;
// crucially, the new epoch is visible to readers before the flush
// notification for the mutation fires, so by the time derived flow rules
// are being removed from switches no cache keyed on the old epoch can
// still validate.
type Manager struct {
	clock   simclock.Clock
	latency store.LatencyModel

	// Observability instruments; nil (and therefore no-ops) unless
	// WithObserver installed a registry. Query latency is not re-measured
	// here — the PCP already times it from outside as
	// dfi_pcp_stage_seconds{stage="policy_query"}.
	snapshotRebuilds *obs.Counter
	queries          *obs.Counter
	// tte records wall-clock time-to-enforcement per mutation (mutation
	// entry through the synchronous flush). It deliberately uses the wall
	// clock rather than m.clock: under a simulated clock the span duration
	// collapses to zero, while the physical cost of rebuilding the snapshot
	// and flushing switches is exactly what the SLO engine gates on.
	tte *obs.Histogram

	// spans (WithTracing) emits a ("policy","apply") span per mutation;
	// audit (WithAuditLog) appends a chained record per changed rule. Both
	// are nil-safe when unconfigured.
	spans *obs.SpanStore
	audit *obs.AuditLog

	snap atomic.Pointer[Snapshot]

	mu         sync.Mutex
	pdps       map[string]int // name -> priority
	priorities map[int]string // priority -> name
	nextID     RuleID
	epoch      uint64
	onFlush    FlushFunc
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithQueryLatency injects a simulated per-query cost (the paper's measured
// RPC+MySQL policy-query latency) charged on the given clock.
func WithQueryLatency(clock simclock.Clock, m store.LatencyModel) ManagerOption {
	return func(pm *Manager) {
		pm.clock = clock
		pm.latency = m
	}
}

// WithObserver registers the Policy Manager's instruments — rule count,
// epoch, snapshot rebuilds, queries served — with reg.
func WithObserver(reg *obs.Registry) ManagerOption {
	return func(pm *Manager) {
		pm.snapshotRebuilds = reg.Counter("dfi_policy_snapshot_rebuilds_total",
			"Copy-on-write policy snapshot publications (one per insert/revoke batch).")
		pm.queries = reg.Counter("dfi_policy_queries_total",
			"Per-flow policy queries served.")
		pm.tte = reg.Histogram("dfi_policy_mutation_tte_seconds",
			"Wall-clock time-to-enforcement per policy mutation: entry through snapshot publication and synchronous switch flush.",
			nil)
		reg.GaugeFunc("dfi_policy_rules",
			"Rules in the current policy snapshot.",
			func() float64 { return float64(pm.Len()) })
		reg.GaugeFunc("dfi_policy_epoch",
			"Current policy epoch (bumps once per applied policy mutation).",
			func() float64 { return float64(pm.Epoch()) })
	}
}

// WithTracing attaches a span store: every accepted ApplyCtx commits one
// ("policy","apply") span, parented on the span context it was given.
func WithTracing(ts *obs.SpanStore) ManagerOption {
	return func(pm *Manager) { pm.spans = ts }
}

// WithAuditLog attaches the tamper-evident audit log: every accepted
// ApplyCtx appends one kind="policy" record (op insert or revoke) per
// changed rule, with the rule id, PDP and rule text.
func WithAuditLog(a *obs.AuditLog) ManagerOption {
	return func(pm *Manager) { pm.audit = a }
}

// NewManager returns an empty Policy Manager.
func NewManager(opts ...ManagerOption) *Manager {
	m := &Manager{
		pdps:       make(map[string]int),
		priorities: make(map[int]string),
		nextID:     1,
	}
	m.snap.Store(emptySnapshot())
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// SetFlushFunc registers the callback invoked when derived flow rules must
// be flushed from switches. It must be set before PDPs start emitting rules.
func (m *Manager) SetFlushFunc(fn FlushFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onFlush = fn
}

// RegisterPDP registers a Policy Decision Point with its network-
// administrator-assigned priority. Higher priorities take precedence and
// must be unique across PDPs (paper §III-B).
func (m *Manager) RegisterPDP(name string, priority int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pdps[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicatePDP, name)
	}
	if holder, ok := m.priorities[priority]; ok {
		return fmt.Errorf("%w: %d (held by %q)", ErrDuplicatePriority, priority, holder)
	}
	m.pdps[name] = priority
	m.priorities[priority] = name
	return nil
}

// Insert stores one rule from a PDP and returns its assigned id: an
// untraced ApplyCtx with a single insert.
func (m *Manager) Insert(r Rule) (RuleID, error) {
	ids, _, err := m.ApplyCtx(obs.SpanContext{}, []Rule{r}, nil)
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Revoke removes one rule and flushes its derived flow rules: an untraced
// ApplyCtx with a single revoke.
func (m *Manager) Revoke(id RuleID) error {
	_, _, err := m.ApplyCtx(obs.SpanContext{}, nil, []RuleID{id})
	return err
}

// Relabel names a stored rule and the provenance tag it should carry
// from now on (see Rule.Origin).
type Relabel struct {
	ID     RuleID
	Origin string
}

// ApplyCtx is the Policy Manager's one mutation: it revokes the rules named
// by revokes and stores inserts, stamping each with an id and its PDP's
// priority, and returns the new ids in insert order with the epoch of the
// snapshot it published. relabels, when given, set the Origin of stored
// rules that the call keeps (the policy-language engine's rules whose
// statement moved to another line): the rule keeps its id and matches as
// before, so a relabel adds nothing to the flush. An insert from an
// unregistered PDP, or a revoke or relabel of an unknown id, rejects the
// whole call before anything changes, as does a relabel of an id the call
// revokes; an empty call changes nothing either and returns epoch 0. The
// epoch is the one this call published: by the time the caller reads
// Epoch, another mutation may have published a later one.
//
// An accepted call publishes one snapshot (one epoch) and, after
// unlocking, calls the FlushFunc once with the sorted, duplicate-free
// union of the revoked ids, each insert's conflicts — surviving rules that
// overlap it with the opposite action and that it outranks (lower
// priority, or equal priority when the insert is a Deny, since Deny wins
// ties), whose flow rules may now be stale — and DefaultDenyID when any
// insert is an Allow, as the implicit catch-all is the lowest-priority
// Deny. The ("policy","apply") span parents under sc and is committed
// after the flush, so it measures time-to-enforcement.
func (m *Manager) ApplyCtx(sc obs.SpanContext, inserts []Rule, revokes []RuleID, relabels ...Relabel) ([]RuleID, uint64, error) {
	if len(inserts) == 0 && len(revokes) == 0 && len(relabels) == 0 {
		return nil, 0, nil
	}
	span := m.spans.Child(sc)
	start := m.spans.Now()
	wall := time.Now()

	m.mu.Lock()
	cur := m.snap.Load()
	revoked, gone, relabeled, err := m.validateLocked(cur, inserts, revokes, relabels)
	if err != nil {
		m.mu.Unlock()
		return nil, 0, err
	}
	flush := make([]RuleID, 0, len(revokes)+1)
	for _, r := range revoked {
		flush = append(flush, r.ID)
	}
	ids := make([]RuleID, len(inserts))
	inserted := make([]*Rule, len(inserts))
	for i := range inserts {
		r := inserts[i]
		r.Priority = m.pdps[r.PDP]
		r.ID = m.nextID
		m.nextID++
		// Only rules stored before this call can have installed flow rules,
		// so conflicts are sought among the survivors, not among inserts,
		// and only in the buckets the insert outranks.
		for bi := range cur.buckets {
			b := &cur.buckets[bi]
			if b.priority > r.Priority || (b.priority == r.Priority && r.Action != ActionDeny) {
				continue
			}
			for _, existing := range b.rules {
				if existing.Action != r.Action && existing.Overlaps(&r) && !holds(gone, existing.ID) {
					flush = append(flush, existing.ID)
				}
			}
		}
		if r.Action == ActionAllow {
			flush = append(flush, DefaultDenyID)
		}
		ids[i] = r.ID
		inserted[i] = &r
	}
	// The snapshot loses the revoked rules and swaps each relabeled one for
	// its copy; the inserts' new ids exceed every stored one.
	c := change{gone: gone, add: append(relabeled, inserted...)}
	if len(relabeled) > 0 {
		c.gone = slices.Clone(gone)
		for _, r := range relabeled {
			c.gone = append(c.gone, cur.Get(r.ID))
		}
		slices.SortFunc(c.gone, byID)
	}
	// The new epoch is visible before the flush, so no cache entry keyed on
	// the old one validates once derived flow rules are being removed.
	m.epoch++
	epoch := m.epoch
	m.snap.Store(cur.next(epoch, c))
	m.snapshotRebuilds.Inc()
	fn := m.onFlush
	m.mu.Unlock()

	slices.Sort(flush)
	flush = slices.Compact(flush)
	if fn != nil {
		fn(span, flush)
	}
	m.tte.Observe(time.Since(wall))
	if m.spans.Enabled() {
		// A single-rule apply names its rule.
		var ruleID uint64
		detail := fmt.Sprintf("inserted %d, revoked %d", len(inserted), len(revoked))
		if len(relabeled) > 0 {
			detail += fmt.Sprintf(", relabeled %d", len(relabeled))
		}
		switch {
		case len(inserted) == 1 && len(revoked) == 0:
			ruleID, detail = uint64(inserted[0].ID), "insert "+inserted[0].String()
		case len(inserted) == 0 && len(revoked) == 1:
			ruleID, detail = uint64(revoked[0].ID), "revoke "+revoked[0].String()
		}
		m.spans.Commit(obs.Span{
			Trace:     span.Trace,
			ID:        span.Span,
			Parent:    sc.Span,
			Component: obs.CompPolicy,
			Stage:     "apply",
			Start:     start,
			Duration:  m.spans.Now().Sub(start),
			RuleID:    ruleID,
			Detail:    detail,
		})
	}
	for _, r := range inserted {
		m.auditMutation(span, "insert", r)
	}
	for _, r := range revoked {
		m.auditMutation(span, "revoke", r)
	}
	return ids, epoch, nil
}

// validateLocked checks an apply against cur, the published snapshot. It
// returns the rules the apply revokes, in the caller's order and each
// once (for the audit trail), the same rules in id order, and the
// relabeled copies of the rules it relabels, in id order.
func (m *Manager) validateLocked(cur *Snapshot, inserts []Rule, revokes []RuleID, relabels []Relabel) (revoked, gone, relabeled []*Rule, err error) {
	for i := range inserts {
		if _, ok := m.pdps[inserts[i].PDP]; !ok {
			return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownPDP, inserts[i].PDP)
		}
	}
	revoked = make([]*Rule, 0, len(revokes))
	for _, id := range revokes {
		r := cur.Get(id)
		if r == nil {
			return nil, nil, nil, fmt.Errorf("%w: %d", ErrUnknownRule, id)
		}
		revoked = append(revoked, r)
	}
	gone = slices.Clone(revoked)
	slices.SortFunc(gone, byID)
	if gone = slices.Compact(gone); len(gone) < len(revoked) {
		// A repeated id is revoked once.
		seen := make(map[*Rule]bool, len(revoked))
		revoked = slices.DeleteFunc(revoked, func(r *Rule) bool {
			dup := seen[r]
			seen[r] = true
			return dup
		})
	}
	byRelabel := make(map[RuleID]*Rule, len(relabels))
	for _, rl := range relabels { // a repeated id takes its last origin
		r := cur.Get(rl.ID)
		if r == nil || holds(gone, rl.ID) {
			return nil, nil, nil, fmt.Errorf("%w: relabel %d", ErrUnknownRule, rl.ID)
		}
		nr := *r
		nr.Origin = rl.Origin
		byRelabel[rl.ID] = &nr
	}
	for _, r := range byRelabel {
		relabeled = append(relabeled, r)
	}
	slices.SortFunc(relabeled, byID)
	return revoked, gone, relabeled, nil
}

func byID(a, b *Rule) int { return cmp.Compare(a.ID, b.ID) }

// holds reports whether rules, in id order, holds the rule with id.
func holds(rules []*Rule, id RuleID) bool {
	_, found := slices.BinarySearchFunc(rules, id, func(r *Rule, id RuleID) int { return cmp.Compare(r.ID, id) })
	return found
}

// auditMutation appends one kind="policy" record for a changed rule; a
// no-op without WithAuditLog.
func (m *Manager) auditMutation(span obs.SpanContext, op string, r *Rule) {
	m.audit.Append(obs.AuditRecord{
		Kind:        "policy",
		Op:          op,
		Trace:       uint64(span.Trace),
		RuleID:      uint64(r.ID),
		PDP:         r.PDP,
		PolicyEpoch: m.Epoch(),
		Detail:      r.String(),
	})
}

// PDPPriority returns the registered priority of a PDP, reporting whether
// the PDP exists. The policy-language engine uses it to make document
// re-application idempotent: a pdp declaration matching an existing
// registration is a no-op, a mismatching one is a compile error.
func (m *Manager) PDPPriority(name string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prio, ok := m.pdps[name]
	return prio, ok
}

// Query returns the decision for a flow: the highest-priority matching rule
// wins; among equal-priority matches with conflicting actions, Deny wins
// (erring on the side of stopping unauthorized flows); with no match the
// decision is the default Deny.
//
// Query is lock-free and allocation-free: it reads the current immutable
// snapshot and returns a pointer to the winning rule inside it (see
// Decision.Rule for the immutability contract).
//
//dfi:hotpath
func (m *Manager) Query(f *FlowView) Decision {
	m.queries.Inc()
	store.Charge(m.clock, m.latency)
	return m.snap.Load().Query(f)
}

// Snapshot returns the current immutable policy snapshot, for callers that
// need a consistent multi-rule view of the policy (e.g. the PCP's wildcard
// widening safety check) without copying the rule set.
func (m *Manager) Snapshot() *Snapshot {
	return m.snap.Load()
}

// Epoch returns the current policy epoch: a counter that increases once
// per accepted ApplyCtx, however many rules it changed. A Decision
// carrying an older epoch was made against a policy that has since
// changed.
func (m *Manager) Epoch() uint64 {
	return m.snap.Load().epoch
}

// Rules returns a copy of the stored policy, ordered by id.
func (m *Manager) Rules() []Rule {
	all := m.snap.Load().all
	out := make([]Rule, len(all))
	for i, r := range all {
		out[i] = *r
	}
	return out
}

// Len returns the number of stored rules.
func (m *Manager) Len() int {
	return m.snap.Load().Len()
}

// Get returns the rule with the given id.
func (m *Manager) Get(id RuleID) (Rule, bool) {
	r := m.snap.Load().Get(id)
	if r == nil {
		return Rule{}, false
	}
	return *r, true
}
