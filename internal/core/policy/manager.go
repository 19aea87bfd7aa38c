package policy

import (
	"errors"
	"fmt"
	"sort"
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

// FlushFunc is notified after every policy mutation with the ids of policy
// rules whose derived flow rules must be removed from the switches (paper
// §III-B: on conflicting insert and on revocation). The ids slice may be
// empty: an insert that conflicts with nothing still advances the epoch.
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

	// spans (WithTracing) emits a ("policy", op) span per mutation; audit
	// (WithAuditLog) appends a chained record per mutation. Both are
	// nil-safe when unconfigured.
	spans *obs.SpanStore
	audit *obs.AuditLog

	snap atomic.Pointer[Snapshot]

	mu         sync.Mutex
	rules      map[RuleID]*Rule
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
			"Current policy epoch (bumps on every insert, revoke and revoke-all).",
			func() float64 { return float64(pm.Epoch()) })
	}
}

// WithTracing attaches a span store: every insert/revoke/revoke-all
// commits a ("policy", op) span, parented on the caller's span context
// when one is threaded through the Ctx mutation variants.
func WithTracing(ts *obs.SpanStore) ManagerOption {
	return func(pm *Manager) { pm.spans = ts }
}

// WithAuditLog attaches the tamper-evident audit log: every mutation
// appends a kind="policy" record (op insert/revoke/revoke_all) with the
// rule id, PDP and rule text.
func WithAuditLog(a *obs.AuditLog) ManagerOption {
	return func(pm *Manager) { pm.audit = a }
}

// NewManager returns an empty Policy Manager.
func NewManager(opts ...ManagerOption) *Manager {
	m := &Manager{
		rules:      make(map[RuleID]*Rule),
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

// publishLocked builds and publishes the snapshot for the current rule set,
// bumping the epoch. Callers hold m.mu and must invoke it before releasing
// the lock (and therefore before any flush notification).
func (m *Manager) publishLocked() {
	m.epoch++
	m.snap.Store(buildSnapshot(m.epoch, m.rules))
	m.snapshotRebuilds.Inc()
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

// Insert stores a new policy rule from a PDP, assigning its id and
// priority. Existing rules that overlap the new rule with a different
// action and that it now outranks — lower priority, or equal priority when
// the new rule is a Deny, since Deny wins ties — may have produced
// now-stale flow rules; their derived rules are flushed (the conflicting
// policies themselves remain stored).
func (m *Manager) Insert(r Rule) (RuleID, error) {
	return m.InsertCtx(obs.SpanContext{}, r)
}

// InsertCtx is Insert carrying a causal span context: the mutation's
// ("policy","insert") span parents under sc (a sensor event's publish
// span, typically) and any triggered flush runs inside the same trace.
func (m *Manager) InsertCtx(sc obs.SpanContext, r Rule) (RuleID, error) {
	span := m.spans.Child(sc)
	start := m.spans.Now()
	wall := time.Now()

	m.mu.Lock()
	prio, ok := m.pdps[r.PDP]
	if !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrUnknownPDP, r.PDP)
	}
	r.Priority = prio
	r.ID = m.nextID
	m.nextID++

	var flush []RuleID
	for _, existing := range m.rules {
		outranked := existing.Priority < r.Priority ||
			(existing.Priority == r.Priority && r.Action == ActionDeny)
		if outranked && existing.Action != r.Action && existing.Overlaps(&r) {
			flush = append(flush, existing.ID)
		}
	}
	// The implicit default-deny catch-all behaves as the lowest-priority
	// Deny rule (id 0): a new Allow rule conflicts with it, so flow rules
	// derived from default denies must be flushed too.
	if r.Action == ActionAllow {
		flush = append(flush, DefaultDenyID)
	}
	stored := r
	m.rules[stored.ID] = &stored
	m.publishLocked()
	fn := m.onFlush
	m.mu.Unlock()

	if fn != nil {
		sort.Slice(flush, func(i, j int) bool { return flush[i] < flush[j] })
		fn(span, flush)
	}
	m.tte.Observe(time.Since(wall))
	m.commitSpan(sc, span, start, "insert", uint64(stored.ID), stored.String())
	m.auditMutation(span, "insert", uint64(stored.ID), stored.PDP, stored.String())
	return stored.ID, nil
}

// Revoke removes a policy rule and flushes its derived flow rules from the
// switches. Revocation is distinct from inserting an opposite rule: after
// revocation, flows match whatever other policy remains (paper §III-B).
func (m *Manager) Revoke(id RuleID) error {
	return m.RevokeCtx(obs.SpanContext{}, id)
}

// RevokeCtx is Revoke carrying a causal span context (see InsertCtx).
func (m *Manager) RevokeCtx(sc obs.SpanContext, id RuleID) error {
	span := m.spans.Child(sc)
	start := m.spans.Now()
	wall := time.Now()

	m.mu.Lock()
	r, ok := m.rules[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownRule, id)
	}
	delete(m.rules, id)
	m.publishLocked()
	fn := m.onFlush
	m.mu.Unlock()

	if fn != nil {
		fn(span, []RuleID{id})
	}
	m.tte.Observe(time.Since(wall))
	m.commitSpan(sc, span, start, "revoke", uint64(id), r.String())
	m.auditMutation(span, "revoke", uint64(id), r.PDP, r.String())
	return nil
}

// RevokeAll revokes every rule owned by the named PDP, returning how many
// were removed.
func (m *Manager) RevokeAll(pdp string) int {
	return m.RevokeAllCtx(obs.SpanContext{}, pdp)
}

// RevokeAllCtx is RevokeAll carrying a causal span context (see InsertCtx).
func (m *Manager) RevokeAllCtx(sc obs.SpanContext, pdp string) int {
	span := m.spans.Child(sc)
	start := m.spans.Now()
	wall := time.Now()

	m.mu.Lock()
	var ids []RuleID
	for id, r := range m.rules {
		if r.PDP == pdp {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		delete(m.rules, id)
	}
	if len(ids) > 0 {
		m.publishLocked()
	}
	fn := m.onFlush
	m.mu.Unlock()

	if len(ids) == 0 {
		return 0
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if fn != nil {
		fn(span, ids)
	}
	m.tte.Observe(time.Since(wall))
	m.commitSpan(sc, span, start, "revoke_all", 0, fmt.Sprintf("pdp=%s revoked=%d", pdp, len(ids)))
	m.auditMutation(span, "revoke_all", 0, pdp, fmt.Sprintf("revoked %d rules", len(ids)))
	return len(ids)
}

// commitSpan records one mutation span; a no-op without WithTracing.
// Duration includes the synchronous flush the mutation triggered, so the
// span measures time-to-enforcement, the paper's Fig. 5/6 quantity.
func (m *Manager) commitSpan(parent, span obs.SpanContext, start time.Time, op string, ruleID uint64, detail string) {
	if !m.spans.Enabled() {
		return
	}
	m.spans.Commit(obs.Span{
		Trace:     span.Trace,
		ID:        span.Span,
		Parent:    parent.Span,
		Component: obs.CompPolicy,
		Stage:     op,
		Start:     start,
		Duration:  m.spans.Now().Sub(start),
		RuleID:    ruleID,
		Detail:    detail,
	})
}

// auditMutation appends one kind="policy" record; a no-op without
// WithAuditLog.
func (m *Manager) auditMutation(span obs.SpanContext, op string, ruleID uint64, pdp, detail string) {
	m.audit.Append(obs.AuditRecord{
		Kind:        "policy",
		Op:          op,
		Trace:       uint64(span.Trace),
		RuleID:      ruleID,
		PDP:         pdp,
		PolicyEpoch: m.Epoch(),
		Detail:      detail,
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

// Epoch returns the current policy epoch: a counter that increases on
// every insert, revoke and revoke-all. A Decision carrying an older epoch
// was made against a policy that has since changed.
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
