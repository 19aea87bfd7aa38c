// Package pcp implements DFI's Policy Compilation Point (paper §III-B): it
// receives new-flow requests (packet-ins) from the DFI Proxy, enriches the
// packet's low-level identifiers via the Entity Resolution Manager, queries
// the Policy Manager for the highest-priority matching rule, compiles an
// exact-match flow rule tagged with the policy id as its cookie, installs
// it in the switch's table 0, and flushes cookie-tagged rules when policy
// changes. It also hosts the MAC↔switch-port identifier-binding sensor.
//
// Requests flow through a bounded queue drained by a worker pool; a full
// queue drops the request (the flow re-enters on retransmission), which is
// the saturation behaviour the paper measures above ~800 flows/sec.
package pcp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

// SwitchClient writes OpenFlow messages to one switch; the DFI Proxy
// provides one per switch connection.
//
// Implementations must not retain fm (or its Match or Instructions) after
// WriteFlowMod returns: the PCP compiles cache-hit flow mods into pooled
// buffers that are reused for the next admission. Retainers must deep-copy.
type SwitchClient interface {
	WriteFlowMod(fm *openflow.FlowMod) error
}

// FlowReader is the optional read side of a SwitchClient: fetching flow
// statistics from the switch (the proxy implements it by issuing its own
// multipart requests and intercepting the replies).
type FlowReader interface {
	ReadFlows(req *openflow.FlowStatsRequest) ([]*openflow.FlowStatsEntry, error)
}

// FlowModBatcher is the optional batch write side of a SwitchClient:
// installing several flow mods in one coalesced write (the proxy
// implements it over its connection's write buffer). WriteFlowMod's
// no-retain contract applies to every element. FlushPolicies prefers this
// interface so a cookie-scoped flush reaches each switch in one syscall.
type FlowModBatcher interface {
	WriteFlowMods(fms []*openflow.FlowMod) error
}

// ErrNoFlowReader reports a switch attachment that cannot serve flow reads.
var ErrNoFlowReader = errors.New("pcp: switch attachment does not support flow reads")

// ErrUnknownSwitch reports an operation on an unattached datapath.
var ErrUnknownSwitch = errors.New("pcp: unknown switch")

// Decision is the outcome of processing one new flow.
type Decision struct {
	// Allow reports whether the flow may proceed (and the packet-in may be
	// forwarded to the controller).
	Allow bool
	// RuleID is the policy rule that decided the flow;
	// policy.DefaultDenyID for the implicit default deny.
	RuleID policy.RuleID
	// Err is set when the packet could not be evaluated (parse failure or
	// inconsistent identifier bindings); such flows are denied.
	Err error
}

// Request is one new-flow admission request.
type Request struct {
	DPID     uint64
	PacketIn *openflow.PacketIn
	// ProxyOverhead is the proxy-side forwarding cost already spent on this
	// packet-in before it was submitted; the admission's proxy/forward span
	// records it.
	ProxyOverhead time.Duration
	// Done, if non-nil, receives the decision once processing completes.
	Done func(Decision)
}

// Config parameterizes a PCP.
type Config struct {
	Entity *entity.Manager
	Policy *policy.Manager
	// Clock and ProcessingLatency simulate the PCP's own compute cost
	// beyond the binding and policy queries (paper Table II "Other PCP
	// Processing"); zero by default.
	Clock             simclock.Clock
	ProcessingLatency store.LatencyModel
	// QueueDepth bounds pending requests (default 512).
	QueueDepth int
	// Workers sets the worker pool size (default 8).
	Workers int
	// RulePriority is the priority of installed DFI rules (default 100).
	RulePriority uint16
	// WildcardCaching enables the CAB-ACME-style extension (paper §III-B):
	// provably-safe widened flow rules instead of exact matches, reducing
	// control-plane load (see wildcard.go for the safety argument).
	WildcardCaching bool
	// AllowIdleTimeoutSec/DenyIdleTimeoutSec bound rule lifetime so
	// tables do not grow without bound; policy changes are handled by
	// cookie-scoped flushes, not timeouts (default 300/30).
	AllowIdleTimeoutSec uint16
	DenyIdleTimeoutSec  uint16
	// FlushFanOut bounds how many switches FlushPolicies writes to
	// concurrently when flushing cookie-scoped rules (default 8). 1
	// serializes the writes (the pre-fan-out behaviour); the flush is
	// synchronous either way — it returns only after every switch was
	// written, so time-to-enforcement spans stay accurate.
	FlushFanOut int
	// FlowCacheSize bounds the flow-decision cache, the LRU that lets a
	// re-admitted flow skip the binding and policy queries while both the
	// policy epoch and the entity (binding) epoch are unchanged (see
	// cache.go for the staleness argument). 0 selects the default (4096
	// entries); negative disables the cache.
	FlowCacheSize int
	// Obs receives the PCP's instruments (counters, gauges, per-stage
	// histograms). Nil selects a private registry, so Metrics accessors are
	// always live; a dfi.System passes its shared registry here. One PCP
	// per registry — the queue-depth gauge reads this PCP's queue.
	Obs *obs.Registry
	// Spans receives causal spans: a pcp/admission root with its stage
	// children for every admission, a pcp/overload_drop span per queue
	// drop, and flush-compilation / flow-mod-write spans for policy
	// flushes. Nil disables span emission and the stage clock reads that
	// feed it.
	Spans *obs.SpanStore
	// Audit, when non-nil, receives a kind="decision" record per processed
	// admission and a kind="policy" op="flush" record per flush.
	Audit *obs.AuditLog
}

// Metrics exposes the per-stage latency breakdown the paper reports in
// Table II, plus queue and cache statistics. Every field is an instrument
// in the PCP's obs.Registry, so the experiment harness (through these
// accessors) and a /v1/metrics scrape read the same numbers.
type Metrics struct {
	BindingQuery *obs.Histogram
	PolicyQuery  *obs.Histogram
	OtherPCP     *obs.Histogram
	Total        *obs.Histogram

	processed   *obs.Counter
	dropped     *obs.Counter
	denied      *obs.Counter
	allowed     *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	cacheStale  *obs.Counter
	workersBusy *obs.Gauge
}

// Processed returns the number of requests fully processed.
func (m *Metrics) Processed() uint64 { return m.processed.Value() }

// Dropped returns the number of requests rejected by a full queue.
func (m *Metrics) Dropped() uint64 { return m.dropped.Value() }

// Denied returns the number of deny decisions.
func (m *Metrics) Denied() uint64 { return m.denied.Value() }

// Allowed returns the number of allow decisions.
func (m *Metrics) Allowed() uint64 { return m.allowed.Value() }

// CacheHits returns the number of admissions served from the
// flow-decision cache (binding and policy queries skipped).
func (m *Metrics) CacheHits() uint64 { return m.cacheHits.Value() }

// CacheMisses returns the number of admissions that took the full
// enrich-and-query path (including when the cache is disabled).
func (m *Metrics) CacheMisses() uint64 { return m.cacheMisses.Value() }

// CacheStale returns the number of cache probes that found an entry
// invalidated by a policy or binding epoch change (a subset of misses).
func (m *Metrics) CacheStale() uint64 { return m.cacheStale.Value() }

// WorkersBusy returns the number of workers currently processing a request.
func (m *Metrics) WorkersBusy() int64 { return m.workersBusy.Value() }

// PCP is the Policy Compilation Point.
type PCP struct {
	cfg     Config
	reg     *obs.Registry
	metrics Metrics
	cache   *decisionCache // nil when disabled

	// compilePool recycles flow-mod compilation buffers so the cache-hit
	// fast path allocates nothing (see compileBuf).
	compilePool sync.Pool

	queue chan *Request
	wg    sync.WaitGroup
	stop  chan struct{}
	once  sync.Once

	mu       sync.RWMutex
	switches map[uint64]SwitchClient
	started  bool
}

// ErrNotRunning reports a Submit on a PCP that was not started.
var ErrNotRunning = errors.New("pcp: not running")

// New returns a PCP and registers its flush handler with the Policy
// Manager.
func New(cfg Config) *PCP {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.RulePriority == 0 {
		cfg.RulePriority = 100
	}
	if cfg.AllowIdleTimeoutSec == 0 {
		cfg.AllowIdleTimeoutSec = 300
	}
	if cfg.DenyIdleTimeoutSec == 0 {
		cfg.DenyIdleTimeoutSec = 30
	}
	if cfg.FlushFanOut <= 0 {
		cfg.FlushFanOut = 8
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	reg := cfg.Obs
	if reg == nil {
		// A private registry keeps every instrument live, so a
		// directly-constructed PCP measures exactly like one wired into a
		// dfi.System with metrics enabled.
		reg = obs.NewRegistry()
	}
	p := &PCP{
		cfg:         cfg,
		reg:         reg,
		compilePool: sync.Pool{New: func() any { return new(compileBuf) }},
		queue:       make(chan *Request, cfg.QueueDepth),
		stop:        make(chan struct{}),
		switches:    make(map[uint64]SwitchClient),
	}
	if cfg.FlowCacheSize >= 0 {
		size := cfg.FlowCacheSize
		if size == 0 {
			size = 4096
		}
		p.cache = newDecisionCache(size)
	}
	stages := reg.HistogramVec("dfi_pcp_stage_seconds",
		"Per-stage admission latency (paper Table II).", "stage", nil)
	p.metrics.BindingQuery = stages.With("binding_query")
	p.metrics.PolicyQuery = stages.With("policy_query")
	p.metrics.OtherPCP = stages.With("other_pcp")
	p.metrics.Total = stages.With("total")
	decisions := reg.CounterVec("dfi_pcp_decisions_total",
		"Admission decisions by outcome.", "outcome")
	p.metrics.allowed = decisions.With("allow")
	p.metrics.denied = decisions.With("deny")
	cacheEvents := reg.CounterVec("dfi_pcp_cache_events_total",
		"Flow-decision cache probes: hit, miss, or stale (an entry evicted because its policy or entity epoch changed; stale probes also count as misses).",
		"event")
	p.metrics.cacheHits = cacheEvents.With("hit")
	p.metrics.cacheMisses = cacheEvents.With("miss")
	p.metrics.cacheStale = cacheEvents.With("stale")
	p.metrics.processed = reg.Counter("dfi_pcp_processed_total",
		"Admission requests fully processed.")
	p.metrics.dropped = reg.Counter("dfi_pcp_queue_drops_total",
		"Admission requests dropped by a full queue (control-plane saturation).")
	p.metrics.workersBusy = reg.Gauge("dfi_pcp_workers_busy",
		"Admission workers currently processing a request.")
	reg.GaugeFunc("dfi_pcp_workers",
		"Size of the admission worker pool.",
		func() float64 { return float64(cfg.Workers) })
	reg.GaugeFunc("dfi_pcp_queue_depth",
		"Admission requests waiting in the bounded queue.",
		func() float64 { return float64(len(p.queue)) })
	cfg.Policy.SetFlushFunc(p.FlushPolicies)
	return p
}

// Metrics returns the PCP's metrics collector.
func (p *PCP) Metrics() *Metrics { return &p.metrics }

// Registry returns the registry holding the PCP's instruments (the one
// passed in Config.Obs, or the private one created in its absence).
func (p *PCP) Registry() *obs.Registry { return p.reg }

// Start launches the worker pool.
func (p *PCP) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return
	}
	p.started = true
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

// Stop drains the workers and waits for them to exit.
func (p *PCP) Stop() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.mu.Lock()
	p.started = false
	p.mu.Unlock()
}

// AttachSwitch registers the write path for one switch's table 0.
func (p *PCP) AttachSwitch(dpid uint64, client SwitchClient) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.switches[dpid] = client
}

// DetachSwitch removes a switch.
func (p *PCP) DetachSwitch(dpid uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.switches, dpid)
}

func (p *PCP) client(dpid uint64) SwitchClient {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.switches[dpid]
}

// Switches lists the attached datapath ids, sorted.
func (p *PCP) Switches() []uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]uint64, 0, len(p.switches))
	for dpid := range p.switches {
		out = append(out, dpid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReadFlows fetches flow statistics from one attached switch, when its
// attachment supports reading (the DFI Proxy's does).
func (p *PCP) ReadFlows(dpid uint64, req *openflow.FlowStatsRequest) ([]*openflow.FlowStatsEntry, error) {
	client := p.client(dpid)
	if client == nil {
		return nil, fmt.Errorf("%w: %#x", ErrUnknownSwitch, dpid)
	}
	reader, ok := client.(FlowReader)
	if !ok {
		return nil, ErrNoFlowReader
	}
	return reader.ReadFlows(req)
}

// Submit enqueues a new-flow request without blocking. It reports false —
// and the request is dropped — when the queue is full (control-plane
// saturation) or the PCP is not running.
func (p *PCP) Submit(req *Request) bool {
	p.mu.RLock()
	started := p.started
	p.mu.RUnlock()
	if !started {
		p.dropOverload(req)
		return false
	}
	select {
	case p.queue <- req:
		return true
	default:
		p.dropOverload(req)
		return false
	}
}

// dropOverload records one queue (or not-running) drop as a counter and a
// pcp/overload_drop span, so control-plane saturation is visible at
// /v1/spans.
func (p *PCP) dropOverload(req *Request) {
	p.metrics.dropped.Inc()
	if st := p.cfg.Spans; st.Enabled() {
		root := st.NewRoot()
		st.Commit(obs.Span{
			Trace:     root.Trace,
			ID:        root.Span,
			Component: obs.CompPCP,
			Stage:     "overload_drop",
			Start:     p.cfg.Clock.Now(),
			DPID:      req.DPID,
		})
	}
}

func (p *PCP) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case req := <-p.queue:
			p.metrics.workersBusy.Inc()
			p.Process(req)
			p.metrics.workersBusy.Dec()
		}
	}
}

// Process handles one request synchronously: parse (once), enrich, decide,
// compile, install, notify. Exported for single-threaded harnesses (the
// worm testbed) that bypass the queue.
//
// The decision step consults the flow-decision cache first: a hit skips
// both the binding query and the policy query, which are the two dominant
// per-flow costs the paper measures (Table II). A hit is only served while
// the policy and entity epochs recorded with the cached decision are still
// current, so a cached decision can never survive a revocation, flush or
// binding change (see cache.go).
//
// Process, install, compileBuf.fill and decisionCache.lookup are the
// cache-hit admission path the zero-alloc gate measures; decide and
// CompileFlowMod (the miss path) pay the enrichment/compile allocations
// deliberately and are not annotated.
//
// A policy mutation may publish and flush between the decision and the
// install; Process re-reads the policy epoch after installing and, if it
// moved, hands the installed entry to recheck.
//
//dfi:hotpath
func (p *PCP) Process(req *Request) {
	start := p.cfg.Clock.Now()
	traced := p.cfg.Spans.Enabled()
	// st stays on the stack: it is only ever passed by value to
	// emitAdmissionSpans.
	var st stageTimes
	key, kerr := netpkt.ExtractFlowKey(req.PacketIn.Data)
	if traced {
		st.parse = p.cfg.Clock.Now().Sub(start)
	}
	var dec Decision
	var fv *policy.FlowView
	var inPort uint32
	// policyEpoch is the policy epoch dec was decided under.
	var policyEpoch uint64
	hit := false
	if kerr != nil {
		dec = Decision{Err: kerr}
	} else {
		inPort = req.PacketIn.InPort()
		// MAC↔switch-port sensor (paper §IV-A): the PCP is the
		// authoritative observer of where traffic physically enters the
		// network. Runs before the cache probe so that a moved MAC bumps
		// the entity epoch and invalidates decisions made at the old port.
		p.cfg.Entity.BindMACLocation(key.EthSrc, entity.Location{DPID: req.DPID, Port: inPort})

		ck := cacheKey{dpid: req.DPID, inPort: inPort, key: key}
		policyEpoch = p.cfg.Policy.Epoch()
		if p.cache != nil {
			d, ok, stale := p.cache.lookup(ck, policyEpoch, p.cfg.Entity.Epoch())
			if ok {
				dec, hit = d, true
				p.metrics.cacheHits.Inc()
			} else if stale {
				p.metrics.cacheStale.Inc()
			}
		}
		if !hit {
			p.metrics.cacheMisses.Inc()
			var entityEpoch uint64
			dec, fv, policyEpoch, entityEpoch, st.binding, st.policy = p.decide(req, key, inPort)
			if p.cache != nil && dec.Err == nil {
				p.cache.store(ck, dec, policyEpoch, entityEpoch)
			}
		}
	}
	tInstall := start
	if traced {
		tInstall = p.cfg.Clock.Now()
	}
	if installed, match := p.install(req, dec, fv, key); installed && p.cfg.Policy.Epoch() != policyEpoch {
		p.recheck(req, key, dec, match)
	}
	end := p.cfg.Clock.Now()
	p.metrics.Total.Add(end.Sub(start))
	p.metrics.processed.Inc()
	if dec.Allow {
		p.metrics.allowed.Inc()
	} else {
		p.metrics.denied.Inc()
	}
	var trace obs.TraceID
	if traced {
		st.install = end.Sub(tInstall)
		st.total = end.Sub(start)
		trace = p.emitAdmissionSpans(req, inPort, key, dec, hit, start, st)
	}
	if p.cfg.Audit != nil {
		p.auditDecision(req, key, kerr, dec, fv, hit, trace)
	}
	if req.Done != nil {
		req.Done(dec)
	}
}

// stageTimes are one admission's stage durations, measured only when spans
// are collected. Binding and policy are zero on cache hits.
type stageTimes struct {
	parse, binding, policy, install, total time.Duration
}

// emitAdmissionSpans commits one admission's spans and returns their trace:
// a root ("pcp","admission") span carrying the flow's ingress, identifiers,
// deciding rule and outcome, plus a child per measured stage (and the
// proxy's forwarding overhead, spent before the PCP clock started).
// Parameters are by value so the caller's stack copies do not escape, and
// the root's detail is a constant, so a traced cache hit allocates nothing.
func (p *PCP) emitAdmissionSpans(req *Request, inPort uint32, key netpkt.FlowKey, dec Decision, hit bool, start time.Time, t stageTimes) obs.TraceID {
	spans := p.cfg.Spans
	root := spans.NewRoot()
	commitStage := func(component, stage string, at time.Time, d time.Duration) {
		if d <= 0 {
			return
		}
		spans.Commit(obs.Span{
			Trace:     root.Trace,
			ID:        spans.Child(root).Span,
			Parent:    root.Span,
			Component: component,
			Stage:     stage,
			Start:     at,
			Duration:  d,
		})
	}
	commitStage(obs.CompProxy, "forward", start.Add(-req.ProxyOverhead), req.ProxyOverhead)
	at := start
	commitStage(obs.CompPCP, "parse", at, t.parse)
	at = at.Add(t.parse)
	commitStage(obs.CompPCP, "binding_query", at, t.binding)
	at = at.Add(t.binding)
	commitStage(obs.CompPCP, "policy_query", at, t.policy)
	end := start.Add(t.total)
	commitStage(obs.CompPCP, "install", end.Add(-t.install), t.install)
	sp := obs.Span{
		Trace:     root.Trace,
		ID:        root.Span,
		Component: obs.CompPCP,
		Stage:     "admission",
		Start:     start,
		Duration:  t.total,
		DPID:      req.DPID,
		RuleID:    uint64(dec.RuleID),
		InPort:    inPort,
		Flow:      key,
		Detail:    admissionDetail(dec, hit),
	}
	if dec.Err != nil {
		sp.Err = dec.Err.Error()
	}
	spans.Commit(sp)
	return root.Trace
}

// admissionDetail names an admission's outcome for its root span.
func admissionDetail(dec Decision, hit bool) string {
	switch {
	case dec.Err != nil:
		return "error"
	case dec.Allow && hit:
		return "allow (cache hit)"
	case dec.Allow:
		return "allow"
	case hit:
		return "deny (cache hit)"
	default:
		return "deny"
	}
}

// auditDecision appends the kind="decision" record for one processed
// admission: outcome, deciding rule, flow identifiers, the policy and
// entity epochs in effect, and (for fresh decisions) the resolved
// endpoint identities. Callers check p.cfg.Audit != nil first so the
// disabled path costs nothing.
func (p *PCP) auditDecision(req *Request, key netpkt.FlowKey, kerr error, dec Decision, fv *policy.FlowView, hit bool, trace obs.TraceID) {
	rec := obs.AuditRecord{
		Kind:        "decision",
		Trace:       uint64(trace),
		RuleID:      uint64(dec.RuleID),
		DPID:        req.DPID,
		PolicyEpoch: p.cfg.Policy.Epoch(),
		EntityEpoch: p.cfg.Entity.Epoch(),
		CacheHit:    hit,
	}
	switch {
	case dec.Err != nil:
		rec.Op = "error"
		rec.Detail = dec.Err.Error()
	case dec.Allow:
		rec.Op = "allow"
	default:
		rec.Op = "deny"
	}
	if kerr == nil {
		rec.Flow = key.String()
	}
	if fv != nil {
		rec.Detail = fmt.Sprintf("src host=%q users=%v dst host=%q users=%v",
			fv.Src.Host, fv.Src.Users, fv.Dst.Host, fv.Dst.Users)
	}
	_ = p.cfg.Audit.Append(rec)
}

// decide runs the full enrich-and-query path for a parsed flow. It returns
// the epochs its answer was derived under — the entity epoch read before
// resolution and the policy epoch carried by the queried snapshot — so the
// caller can cache the decision; a concurrent policy or binding change
// makes the stored epochs stale and the cache entry self-invalidates. The
// per-stage durations come back as plain return values (rather than decide
// writing into the caller's stageTimes) so those never escape to the heap.
func (p *PCP) decide(req *Request, key netpkt.FlowKey, inPort uint32) (dec Decision, fv *policy.FlowView, policyEpoch, entityEpoch uint64, bindDur, polDur time.Duration) {
	entityEpoch = p.cfg.Entity.Epoch()

	// Binding query: enrich both endpoints in one round trip.
	tBind := p.cfg.Clock.Now()
	srcObs := entity.Observed{
		MAC:    key.EthSrc,
		HasIP:  key.HasIP,
		IP:     key.IPSrc,
		HasLoc: true,
		Loc:    entity.Location{DPID: req.DPID, Port: inPort},
	}
	dstObs := entity.Observed{MAC: key.EthDst, HasIP: key.HasIP, IP: key.IPDst}
	srcRes, dstRes, err := p.cfg.Entity.ResolveBoth(srcObs, dstObs)
	bindDur = p.cfg.Clock.Now().Sub(tBind)
	p.metrics.BindingQuery.Add(bindDur)
	if err != nil {
		// Inconsistent identifiers: spoofed traffic is denied outright.
		return Decision{Err: err}, nil, 0, 0, bindDur, 0
	}

	fv = flowView(key, inPort, req.DPID, srcRes, dstRes, p.cfg.Entity)

	tPolicy := p.cfg.Clock.Now()
	pd := p.cfg.Policy.Query(fv)
	polDur = p.cfg.Clock.Now().Sub(tPolicy)
	p.metrics.PolicyQuery.Add(polDur)

	var ruleID policy.RuleID = policy.DefaultDenyID
	if pd.Matched {
		ruleID = pd.Rule.ID
	}
	dec = Decision{Allow: pd.Action == policy.ActionAllow, RuleID: ruleID}
	return dec, fv, pd.Epoch, entityEpoch, bindDur, polDur
}

// install compiles and installs the flow rule implementing dec for req's
// packet, charging the PCP's remaining processing cost. fv is nil for
// decisions served from the flow-decision cache; those install the exact
// match (wildcard widening needs the enriched view and a policy walk —
// exactly the work the cache exists to skip). It reports whether a rule
// was written and, for fresh decisions, the match it was written with
// (nil for the exact match of a cache hit, which lives in a pooled buffer).
//
//dfi:hotpath
func (p *PCP) install(req *Request, dec Decision, fv *policy.FlowView, key netpkt.FlowKey) (installed bool, match *openflow.Match) {
	tOther := p.cfg.Clock.Now()
	// Deferred closures are open-coded and stay on the stack (the
	// TestAdmissionHotPathZeroAlloc gate proves 0 B/op through here).
	defer func() { //dfi:ignore hotpathalloc
		p.metrics.OtherPCP.Add(p.cfg.Clock.Now().Sub(tOther))
	}()
	store.Charge(p.cfg.Clock, p.cfg.ProcessingLatency)

	if dec.Err != nil {
		// Unevaluable packets are denied without installing a rule: the
		// identifiers are untrustworthy, so a cached rule keyed on them
		// would be wrong.
		return false, nil
	}
	client := p.client(req.DPID)
	if client == nil {
		return false, nil
	}
	if fv != nil {
		// Fresh decision: the enriched view enables wildcard widening, and
		// this path already paid the binding and policy queries, so the
		// compile allocations are noise.
		fm := p.CompileFlowMod(key, req.PacketIn.InPort(), dec)
		fm.Match = p.compileCachedMatch(key, req.PacketIn.InPort(), fv, dec)
		_ = client.WriteFlowMod(fm)
		return true, fm.Match
	}
	// Cache-hit fast path: compile the exact match into a pooled buffer so
	// the admission path allocates nothing. Safe because SwitchClient
	// forbids retaining the flow mod past WriteFlowMod.
	cb := p.compilePool.Get().(*compileBuf)
	cb.fill(p, key, req.PacketIn.InPort(), dec)
	_ = client.WriteFlowMod(&cb.fm)
	p.compilePool.Put(cb)
	return true, nil
}

// recheck keeps an admission that raced a policy mutation from leaving a
// stale entry behind. Nothing orders Process's decide→install against
// FlushPolicies, so a mutation can publish after dec was decided and flush
// before install wrote; the flush never saw the entry. recheck decides
// again against the current snapshot until the epoch holds still, and only
// if the answer differs — in action, or in deciding rule, since the entry's
// cookie must name a rule whose later flush will reach it — strict-deletes
// the entry install wrote (match is nil for the exact match), so the flow's
// next packet re-enters admission. An epoch change alone is no reason to
// retract: a mutation that left this flow's decision alone (the second
// rule of a quarantine template, say) must not evict the first rule's
// freshly installed deny.
func (p *PCP) recheck(req *Request, key netpkt.FlowKey, dec Decision, match *openflow.Match) {
	inPort := req.PacketIn.InPort()
	var cur Decision
	for {
		var epoch uint64
		cur, _, epoch, _, _, _ = p.decide(req, key, inPort)
		if cur.Err != nil || epoch == p.cfg.Policy.Epoch() {
			break
		}
	}
	if cur.Err == nil && cur.Allow == dec.Allow && cur.RuleID == dec.RuleID {
		return
	}
	client := p.client(req.DPID)
	if client == nil {
		return
	}
	if match == nil {
		match = openflow.ExactMatchFor(key, inPort)
	}
	_ = client.WriteFlowMod(&openflow.FlowMod{
		Cookie:     uint64(dec.RuleID),
		CookieMask: ^uint64(0),
		TableID:    0,
		Command:    openflow.FlowModDeleteStrict,
		Priority:   p.cfg.RulePriority,
		OutPort:    openflow.PortAny,
		OutGroup:   0xffffffff,
		Match:      match,
	})
}

// gotoTable1 is the shared allow instruction: every admitted flow continues
// to table 1, the controller's first table. Immutable — the proxy's
// table-space rewrites copy goto-table instructions instead of mutating
// them — so all pooled flow mods share this one slice.
var gotoTable1 = []openflow.Instruction{&openflow.InstructionGotoTable{TableID: 1}}

// compileBuf is a reusable flow-mod compilation buffer for the cache-hit
// fast path. Its Match's pointer fields point at the buffer's own value
// fields, so filling and writing an exact-match rule performs no heap
// allocation; openflow.ExactMatchFor builds the identical match with one
// allocation per pinned field.
type compileBuf struct {
	fm    openflow.FlowMod
	match openflow.Match

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

// fill compiles the exact-match table-0 rule implementing dec into the
// buffer, mirroring CompileFlowMod (which see for the semantics).
//
//dfi:hotpath
func (cb *compileBuf) fill(p *PCP, key netpkt.FlowKey, inPort uint32, dec Decision) {
	cb.inPort = inPort
	cb.ethSrc = key.EthSrc
	cb.ethDst = key.EthDst
	cb.ethType = key.EtherType
	// Rebuild the match wholesale: fields the previous flow pinned but this
	// one does not must come back nil (wildcard).
	cb.match = openflow.Match{
		InPort:  &cb.inPort,
		EthSrc:  &cb.ethSrc,
		EthDst:  &cb.ethDst,
		EthType: &cb.ethType,
	}
	if key.HasIP && key.EtherType == netpkt.EtherTypeIPv4 {
		cb.ipProto = key.IPProto
		cb.ipSrc = key.IPSrc
		cb.ipDst = key.IPDst
		cb.match.IPProto = &cb.ipProto
		cb.match.IPv4Src = &cb.ipSrc
		cb.match.IPv4Dst = &cb.ipDst
		if key.HasL4 {
			cb.l4Src = key.L4Src
			cb.l4Dst = key.L4Dst
			switch key.IPProto {
			case netpkt.ProtoTCP:
				cb.match.TCPSrc = &cb.l4Src
				cb.match.TCPDst = &cb.l4Dst
			case netpkt.ProtoUDP:
				cb.match.UDPSrc = &cb.l4Src
				cb.match.UDPDst = &cb.l4Dst
			}
		}
	}
	if key.HasIP && key.EtherType == netpkt.EtherTypeARP {
		cb.ipSrc = key.IPSrc
		cb.ipDst = key.IPDst
		cb.match.ARPSPA = &cb.ipSrc
		cb.match.ARPTPA = &cb.ipDst
	}
	cb.fm = openflow.FlowMod{
		Cookie:      uint64(dec.RuleID),
		TableID:     0,
		Command:     openflow.FlowModAdd,
		Priority:    p.cfg.RulePriority,
		BufferID:    openflow.NoBuffer,
		OutPort:     openflow.PortAny,
		OutGroup:    0xffffffff,
		Match:       &cb.match,
		IdleTimeout: p.cfg.DenyIdleTimeoutSec,
	}
	if dec.Allow {
		cb.fm.IdleTimeout = p.cfg.AllowIdleTimeoutSec
		cb.fm.Instructions = gotoTable1
	}
}

// CompileFlowMod builds the exact-match table-0 rule implementing dec for
// a flow: every identifier present in the packet is pinned so each new flow
// is checked against current policy (paper §III-B). Allowed flows continue
// to table 1 (the controller's first table); denied flows match a rule with
// no instructions and are dropped.
func (p *PCP) CompileFlowMod(key netpkt.FlowKey, inPort uint32, dec Decision) *openflow.FlowMod {
	fm := &openflow.FlowMod{
		Cookie:      uint64(dec.RuleID),
		TableID:     0,
		Command:     openflow.FlowModAdd,
		Priority:    p.cfg.RulePriority,
		BufferID:    openflow.NoBuffer,
		OutPort:     openflow.PortAny,
		OutGroup:    0xffffffff,
		Match:       openflow.ExactMatchFor(key, inPort),
		IdleTimeout: p.cfg.DenyIdleTimeoutSec,
	}
	if dec.Allow {
		fm.IdleTimeout = p.cfg.AllowIdleTimeoutSec
		fm.Instructions = []openflow.Instruction{&openflow.InstructionGotoTable{TableID: 1}}
	}
	return fm
}

// FlushPolicies removes from every attached switch the table-0 rules
// derived from the given policy ids (cookie-scoped delete). The Policy
// Manager invokes this on every mutation, passing the mutation's span
// context so the compilation and each switch's flow-mod writes land in the
// same causal trace.
func (p *PCP) FlushPolicies(sc obs.SpanContext, ids []policy.RuleID) {
	if len(ids) == 0 {
		// A mutation that invalidates no derived flow rules (a
		// non-overlapping insert) compiles no deletes and writes nothing.
		return
	}
	span := p.cfg.Spans.Child(sc)
	tStart := p.cfg.Spans.Now()

	p.mu.RLock()
	dpids := make([]uint64, 0, len(p.switches))
	clients := make([]SwitchClient, 0, len(p.switches))
	for dpid, c := range p.switches {
		dpids = append(dpids, dpid)
		clients = append(clients, c)
	}
	p.mu.RUnlock()

	// Compile one cookie-scoped delete per policy id up front; the fan-out
	// workers share the slice read-only, so each switch's writes are
	// attributable to one ("proxy","flow_mod_write") span and the compile
	// cost is paid once instead of per switch.
	fms := make([]*openflow.FlowMod, len(ids))
	for i, id := range ids {
		fms[i] = &openflow.FlowMod{
			Cookie:     uint64(id),
			CookieMask: ^uint64(0),
			TableID:    0,
			Command:    openflow.FlowModDelete,
			OutPort:    openflow.PortAny,
			OutGroup:   0xffffffff,
			Match:      &openflow.Match{},
		}
	}
	// Fan the per-switch writes out on a bounded worker group. The flush
	// stays synchronous — it returns only after every switch was written —
	// so the policy mutation span measuring time-to-enforcement closes at
	// the true enforcement point, and callers (revocation paths, tests)
	// observe a completed flush on return.
	if workers := min(p.cfg.FlushFanOut, len(clients)); workers <= 1 {
		for i := range clients {
			p.flushSwitch(span, dpids[i], clients[i], fms)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					p.flushSwitch(span, dpids[i], clients[i], fms)
				}
			}()
		}
		for i := range clients {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	if p.cfg.Spans.Enabled() {
		p.cfg.Spans.Commit(obs.Span{
			Trace:     span.Trace,
			ID:        span.Span,
			Parent:    sc.Span,
			Component: obs.CompPCP,
			Stage:     "flush_compile",
			Start:     tStart,
			Duration:  p.cfg.Spans.Now().Sub(tStart),
			Detail:    fmt.Sprintf("%d policy ids, %d switches", len(ids), len(clients)),
		})
	}
	if p.cfg.Audit != nil {
		_ = p.cfg.Audit.Append(obs.AuditRecord{
			Kind:        "policy",
			Op:          "flush",
			Trace:       uint64(span.Trace),
			PolicyEpoch: p.cfg.Policy.Epoch(),
			Detail:      fmt.Sprintf("flushed derived flow rules for %d policy ids across %d switches", len(ids), len(clients)),
		})
	}
}

// flushSwitch writes the compiled cookie-scoped deletes to one switch —
// in one coalesced write when the client supports batching — under its own
// ("proxy","flow_mod_write") span. Safe to call from concurrent fan-out
// workers: SpanStore commits are synchronized and span ids are atomic.
func (p *PCP) flushSwitch(span obs.SpanContext, dpid uint64, c SwitchClient, fms []*openflow.FlowMod) {
	tSwitch := p.cfg.Spans.Now()
	if b, ok := c.(FlowModBatcher); ok {
		_ = b.WriteFlowMods(fms)
	} else {
		for _, fm := range fms {
			_ = c.WriteFlowMod(fm)
		}
	}
	if p.cfg.Spans.Enabled() {
		p.cfg.Spans.Commit(obs.Span{
			Trace:     span.Trace,
			ID:        p.cfg.Spans.Child(span).Span,
			Parent:    span.Span,
			Component: obs.CompProxy,
			Stage:     "flow_mod_write",
			Start:     tSwitch,
			Duration:  p.cfg.Spans.Now().Sub(tSwitch),
			DPID:      dpid,
			Detail:    fmt.Sprintf("%d flow mods", len(fms)),
		})
	}
}

// flowView assembles the enriched FlowView for policy evaluation.
func flowView(key netpkt.FlowKey, inPort uint32, dpid uint64, src, dst entity.Resolution, erm *entity.Manager) *policy.FlowView {
	fv := &policy.FlowView{
		EtherType:  key.EtherType,
		HasIPProto: key.HasIP && key.EtherType == netpkt.EtherTypeIPv4,
		IPProto:    key.IPProto,
		Src: policy.EndpointAttrs{
			Users:         src.Users,
			Host:          src.Host,
			HasIP:         key.HasIP,
			IP:            key.IPSrc,
			HasPort:       key.HasL4,
			Port:          key.L4Src,
			MAC:           key.EthSrc,
			HasSwitchPort: true,
			SwitchPort:    inPort,
			HasDPID:       true,
			DPID:          dpid,
		},
		Dst: policy.EndpointAttrs{
			Users:   dst.Users,
			Host:    dst.Host,
			HasIP:   key.HasIP,
			IP:      key.IPDst,
			HasPort: key.HasL4,
			Port:    key.L4Dst,
			MAC:     key.EthDst,
			HasDPID: true,
			DPID:    dpid,
		},
	}
	if port, ok := erm.LocationOf(key.EthDst, dpid); ok {
		fv.Dst.HasSwitchPort = true
		fv.Dst.SwitchPort = port
	}
	return fv
}
