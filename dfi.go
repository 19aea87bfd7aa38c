// Package dfi is Dynamic Flow Isolation: controller-oblivious, dynamic,
// fine-grained network access control for OpenFlow 1.3 SDNs, reproducing
// Gomez et al., "Controller-Oblivious Dynamic Access Control in
// Software-Defined Networks" (DSN 2019).
//
// A System assembles DFI's control plane — the DFI Proxy, Policy
// Compilation Point, Policy Manager, Entity Resolution Manager and an event
// bus for sensors and PDPs — in front of an unmodified SDN controller.
// Each OpenFlow switch connection is handed to ServeSwitch; the proxy
// reserves flow table 0 of every switch for DFI's access-control rules,
// evaluates each new flow against the current policy before the controller
// ever sees it, and keeps cached rules consistent with policy changes via
// cookie-scoped flushes.
//
// Minimal use:
//
//	sys, err := dfi.New(dfi.WithControllerDialer(dial))
//	...
//	go sys.ServeSwitch(switchConn) // one per switch
//
// Policies come from a policy document (WithPolicySource, PolicyEngine)
// or from PDPs: register one of the provided PDPs (AllowAll, SRBAC,
// ATRBAC) or emit rules directly through sys.Policy().
package dfi

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/core/proxy"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/obs/slo"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/policytext/compile/verify"
	"github.com/dfi-sdn/dfi/internal/sensors"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

// config collects the options for New.
type config struct {
	dial          func() (io.ReadWriteCloser, error)
	clock         simclock.Clock
	bindingLat    store.LatencyModel
	policyLat     store.LatencyModel
	pcpLat        store.LatencyModel
	proxyLat      store.LatencyModel
	queueDepth    int
	workers       int
	allowIdleSec  uint16
	denyIdleSec   uint16
	externalBus   *bus.Bus
	wildcardCache bool
	metrics       *obs.Registry
	auditPath     string
	auditMaxBytes int64
	policySource  string
	policySet     bool
	sloEnabled    bool
	sloInterval   time.Duration
	sloObjectives []slo.Objective
}

// Option configures a System.
type Option func(*config)

// WithControllerDialer sets how the proxy reaches the SDN controller: the
// dialer is invoked once per switch connection. Required.
func WithControllerDialer(dial func() (io.ReadWriteCloser, error)) Option {
	return func(c *config) { c.dial = dial }
}

// WithClock sets the clock used for rule timeouts and latency charging
// (default: wall clock). The security-evaluation testbed passes a simulated
// clock here.
func WithClock(clock simclock.Clock) Option {
	return func(c *config) { c.clock = clock }
}

// WithLatencyProfile injects per-stage control-plane costs: the binding
// query, policy query, residual PCP processing and proxy forwarding. Nil
// models are free. Used to calibrate benchmarks against the paper's
// measured MySQL/RabbitMQ deployment (Table II).
func WithLatencyProfile(binding, policyQuery, pcpProcessing, proxyForward store.LatencyModel) Option {
	return func(c *config) {
		c.bindingLat = binding
		c.policyLat = policyQuery
		c.pcpLat = pcpProcessing
		c.proxyLat = proxyForward
	}
}

// PaperLatencyProfile returns the Gaussian per-stage costs the paper
// measured on its testbed (Table II): binding query 2.41±0.97 ms, policy
// query 2.52±0.85 ms, other PCP processing 0.39±0.27 ms, proxy
// 0.16±0.10 ms. Use with WithLatencyProfile to regenerate Tables I–II and
// Figure 4.
func PaperLatencyProfile(seed int64) (binding, policyQuery, pcpProcessing, proxyForward LatencyModel) {
	return store.NewGaussian(2410*time.Microsecond, 970*time.Microsecond, seed),
		store.NewGaussian(2520*time.Microsecond, 850*time.Microsecond, seed+1),
		store.NewGaussian(390*time.Microsecond, 270*time.Microsecond, seed+2),
		store.NewGaussian(160*time.Microsecond, 100*time.Microsecond, seed+3)
}

// WithAdmissionQueue bounds the PCP's pending-flow queue and worker pool
// (defaults 512 and 8). The queue bound produces the saturation behaviour
// the paper measures above ~800 flows/sec.
func WithAdmissionQueue(depth, workers int) Option {
	return func(c *config) {
		c.queueDepth = depth
		c.workers = workers
	}
}

// WithRuleTimeouts sets the idle timeouts (seconds) on installed allow and
// deny rules (defaults 300 and 30).
func WithRuleTimeouts(allowSec, denySec uint16) Option {
	return func(c *config) {
		c.allowIdleSec = allowSec
		c.denyIdleSec = denySec
	}
}

// WithWildcardCaching enables the CAB-ACME-style extension the paper
// names as future work (§III-B): the PCP installs provably-safe widened
// flow rules instead of exact matches when no other policy rule — present
// or identifier-dependent — could decide any covered packet differently,
// reducing control-plane load for flow-dense host pairs.
func WithWildcardCaching() Option {
	return func(c *config) { c.wildcardCache = true }
}

// WithPolicySource loads an initial policy document (the policytext
// language: groups, roles, temporal windows, templates) at assembly time.
// The source is compiled and applied atomically by the System's policy
// engine before New returns; parse or compile errors fail New. The
// document can later be fetched, diffed and replaced at runtime through
// PolicyEngine, the /v1/policy admin API or dfictl policy. Temporal
// windows are driven by the System clock when it implements
// simclock.Scheduler (simclock.Real and *simclock.Simulated both do);
// otherwise they fall back to wall-clock timers.
func WithPolicySource(src string) Option {
	return func(c *config) {
		c.policySource = src
		c.policySet = true
	}
}

// WithSLO attaches the service-level-objective engine: sliding-window
// objectives over the System's live instruments, evaluated periodically on
// the System clock and surfaced via GET /v1/slo and dfictl slo. With no
// objectives the engine installs the defaults — policy time-to-enforcement
// p99, admission-latency p99, packet-in rate and audit append failures.
// Evaluation reads atomic counters and histogram bucket snapshots only;
// the admission hot path is untouched.
func WithSLO(objectives ...slo.Objective) Option {
	return func(c *config) {
		c.sloEnabled = true
		c.sloObjectives = objectives
	}
}

// WithSLOInterval overrides the periodic evaluation interval (default 10s;
// <=0 disables the ticker, leaving evaluation to /v1/slo reads).
func WithSLOInterval(d time.Duration) Option {
	return func(c *config) {
		c.sloEnabled = true
		c.sloInterval = d
	}
}

// DefaultSLOObjectives builds the stock objective set over reg's
// instruments: mutation time-to-enforcement p99 ≤ 100ms, admission total
// stage p99 ≤ 25ms, packet-in admission rate ≤ 10k/s (a flood signal) —
// each over a one-minute window — and zero audit append failures over five
// minutes (auditFailures may be nil when no audit log is configured).
func DefaultSLOObjectives(reg *obs.Registry, auditFailures func() uint64) []slo.Objective {
	// Lookups, not registrations: the Policy Manager and PCP own these
	// families and have already registered them by assembly time.
	tte := reg.FindHistogram("dfi_policy_mutation_tte_seconds")
	stages := reg.FindHistogramVec("dfi_pcp_stage_seconds")
	processed := reg.FindCounter("dfi_pcp_processed_total")
	if auditFailures == nil {
		auditFailures = func() uint64 { return 0 }
	}
	return []slo.Objective{
		slo.Quantile("tte-p99", "dfi_policy_mutation_tte_seconds",
			tte, 0.99, 100*time.Millisecond, time.Minute),
		slo.Quantile("admission-p99", `dfi_pcp_stage_seconds{stage="total"}`,
			stages.With("total"), 0.99, 25*time.Millisecond, time.Minute),
		slo.Rate("packetin-rate", "dfi_pcp_processed_total",
			processed.Value, 10000, time.Minute),
		slo.ZeroIncrease("audit-failures", "dfi_audit_append_failures_total",
			auditFailures, 5*time.Minute),
	}
}

// WithBus supplies an existing event bus instead of creating one.
func WithBus(b *bus.Bus) Option {
	return func(c *config) { c.externalBus = b }
}

// WithMetrics supplies the metrics registry every DFI component registers
// its instruments with, letting one registry aggregate several systems or
// share a process-wide scrape endpoint. Without this option the System
// creates a private registry, reachable via Metrics(). A registry must not
// be shared by two Systems: several gauges (PCP queue depth, worker pool)
// are bound to one System's components at registration time.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// WithAuditLog enables the tamper-evident enforcement audit log: an
// append-only, hash-chained JSONL file at path recording every
// access-control decision and every policy/binding mutation. maxBytes
// bounds the active file (<=0 selects obs.DefaultAuditMaxBytes); on
// overflow it rotates to path+".1" with the hash chain continuing
// unbroken. Verify with dfictl audit verify or GET /v1/audit/verify.
func WithAuditLog(path string, maxBytes int64) Option {
	return func(c *config) {
		c.auditPath = path
		c.auditMaxBytes = maxBytes
	}
}

// System is an assembled DFI control plane.
type System struct {
	bus      *bus.Bus
	ownsBus  bool
	policy   *policy.Manager
	entity   *entity.Manager
	pcp      *pcp.PCP
	engine   *compile.Engine
	proxy    *proxy.Proxy
	metrics  *obs.Registry
	spans    *obs.SpanStore
	audit    *obs.AuditLog
	slo      *slo.Engine
	detachFn func()
}

// New assembles a DFI control plane.
func New(opts ...Option) (*System, error) {
	cfg := config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.dial == nil {
		return nil, errors.New("dfi: WithControllerDialer is required")
	}
	if cfg.clock == nil {
		cfg.clock = simclock.Real{}
	}

	s := &System{}
	if cfg.externalBus != nil {
		s.bus = cfg.externalBus
	} else {
		s.bus = bus.New()
		s.ownsBus = true
	}
	if cfg.metrics != nil {
		s.metrics = cfg.metrics
	} else {
		s.metrics = obs.NewRegistry()
	}
	// The causal span store retains the spans linking a sensor event to its
	// enforcement and each admission to its stages.
	s.spans = obs.NewSpanStore(2048, cfg.clock)
	s.bus.SetTracer(s.spans)
	if cfg.auditPath != "" {
		audit, err := obs.OpenAuditLog(cfg.auditPath, cfg.auditMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("dfi: %w", err)
		}
		s.audit = audit
	}
	s.metrics.CounterFunc("dfi_bus_published_total",
		"Events accepted by the sensor bus.", s.bus.Published)
	s.metrics.CounterFunc("dfi_bus_dropped_total",
		"Events discarded due to full subscriber queues.", s.bus.Dropped)
	s.registerObservability()

	s.policy = policy.NewManager(
		policy.WithQueryLatency(cfg.clock, cfg.policyLat),
		policy.WithObserver(s.metrics),
		policy.WithTracing(s.spans),
		policy.WithAuditLog(s.audit))
	s.entity = entity.NewManager(
		entity.WithQueryLatency(cfg.clock, cfg.bindingLat),
		entity.WithObserver(s.metrics),
		entity.WithAuditLog(s.audit))
	s.pcp = pcp.New(pcp.Config{
		Entity:              s.entity,
		Policy:              s.policy,
		Clock:               cfg.clock,
		ProcessingLatency:   cfg.pcpLat,
		QueueDepth:          cfg.queueDepth,
		Workers:             cfg.workers,
		WildcardCaching:     cfg.wildcardCache,
		AllowIdleTimeoutSec: cfg.allowIdleSec,
		DenyIdleTimeoutSec:  cfg.denyIdleSec,
		Obs:                 s.metrics,
		Spans:               s.spans,
		Audit:               s.audit,
	})

	// The policy engine compiles the high-level policy language down to
	// manager rules; it hangs off the same manager the PCP flushes from, so
	// engine deltas ride the compiled flush path. Created unconditionally:
	// the /v1/policy API is available even without an initial source.
	sched, ok := cfg.clock.(simclock.Scheduler)
	if !ok {
		sched = simclock.Real{}
	}
	s.engine = compile.NewEngine(s.policy, sched)
	// Every document apply is gated by the static policy verifier:
	// error-severity findings (an inert deny shadowed by a broader allow, a
	// window that can never fire) reject the document atomically; warnings
	// surface through the admin API and dfictl.
	s.engine.SetCheck(verify.Gate)
	if cfg.policySet {
		if _, err := s.engine.SetSource(cfg.policySource); err != nil {
			return nil, fmt.Errorf("dfi: policy source: %w", err)
		}
	}

	if cfg.sloEnabled {
		objectives := cfg.sloObjectives
		if len(objectives) == 0 {
			objectives = DefaultSLOObjectives(s.metrics, s.audit.Failures)
		}
		s.slo = slo.New(cfg.clock, s.metrics, objectives...)
		interval := cfg.sloInterval
		if interval == 0 {
			interval = 10 * time.Second
		}
		if interval > 0 {
			s.slo.Run(sched, interval)
		}
	}

	var err error
	s.proxy, err = proxy.New(proxy.Config{
		PCP:            s.pcp,
		DialController: cfg.dial,
		Clock:          cfg.clock,
		Latency:        cfg.proxyLat,
		Obs:            s.metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("dfi: %w", err)
	}

	detach, err := sensors.AttachEntityManagerTraced(s.bus, s.entity, s.spans)
	if err != nil {
		return nil, fmt.Errorf("dfi: %w", err)
	}
	s.detachFn = detach

	s.pcp.Start()
	return s, nil
}

// registerObservability registers the System-level instruments: the span
// and audit families plus Go runtime self-metrics, so /v1/metrics exposes
// process health alongside the DFI counters.
func (s *System) registerObservability() {
	s.metrics.CounterFunc("dfi_span_committed_total",
		"Causal spans committed to the span store (including overwritten ones).",
		s.spans.Committed)
	s.metrics.CounterFunc("dfi_audit_records_total",
		"Records appended to the enforcement audit log.", s.audit.Records)
	s.metrics.CounterFunc("dfi_audit_bytes_total",
		"Bytes appended to the enforcement audit log.", s.audit.BytesWritten)
	s.metrics.CounterFunc("dfi_audit_rotations_total",
		"Audit log size-based rotations.", s.audit.Rotations)
	s.metrics.CounterFunc("dfi_audit_append_failures_total",
		"Audit records lost to marshal or I/O failures.", s.audit.Failures)
	s.metrics.GaugeFunc("dfi_go_goroutines",
		"Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.metrics.GaugeFunc("dfi_go_heap_bytes",
		"Heap bytes in use (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	s.metrics.GaugeFunc("dfi_go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time in seconds (monotone).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
}

// ServeSwitch interposes DFI on one switch's OpenFlow connection, dialing
// the controller behind it. It blocks until the connection closes; run one
// goroutine per switch.
func (s *System) ServeSwitch(conn io.ReadWriteCloser) error {
	return s.proxy.ServeSwitch(conn)
}

// HandleSwitch interposes DFI on one switch connection without blocking
// the caller: it runs ServeSwitch on its own goroutine and invokes done
// (if non-nil) with ServeSwitch's result when the session ends.
func (s *System) HandleSwitch(conn io.ReadWriteCloser, done func(error)) error {
	return s.proxy.HandleSwitch(conn, done)
}

// Policy returns the Policy Manager (for PDPs and administration).
func (s *System) Policy() *policy.Manager { return s.policy }

// Entity returns the Entity Resolution Manager.
func (s *System) Entity() *entity.Manager { return s.entity }

// PCP returns the Policy Compilation Point.
func (s *System) PCP() *pcp.PCP { return s.pcp }

// PolicyEngine returns the policy-language engine: the incremental
// compiler that keeps the Policy Manager in sync with the loaded
// policytext document (group membership churn, template instantiation,
// temporal windows). Always non-nil; with no source loaded it holds an
// empty document.
func (s *System) PolicyEngine() *compile.Engine { return s.engine }

// Proxy returns the interposition proxy (for statistics).
func (s *System) Proxy() *proxy.Proxy { return s.proxy }

// Metrics returns the registry holding every component's instruments
// (the one passed to WithMetrics, or the System's private registry).
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Spans returns the causal span store: the bounded ring (2048 spans) of
// admission, overload-drop and sensor-to-enforcement spans.
func (s *System) Spans() *obs.SpanStore { return s.spans }

// Audit returns the enforcement audit log, nil unless WithAuditLog
// enabled it (every obs.AuditLog method is nil-safe).
func (s *System) Audit() *obs.AuditLog { return s.audit }

// SLO returns the service-level-objective engine, nil unless WithSLO
// enabled it (every slo.Engine method is nil-safe).
func (s *System) SLO() *slo.Engine { return s.slo }

// EventBus returns the sensor event bus.
func (s *System) EventBus() *bus.Bus { return s.bus }

// Close stops the PCP workers, detaches sensor subscriptions and closes
// the audit log. Switch connections terminate when their streams close.
func (s *System) Close() {
	s.slo.Close()
	s.pcp.Stop()
	if s.detachFn != nil {
		s.detachFn()
	}
	if s.ownsBus {
		s.bus.Close()
	} else {
		// A shared bus outlives this System; stop feeding our span store.
		s.bus.SetTracer(nil)
	}
	_ = s.audit.Close()
}
