package scenario

import (
	"fmt"
	"io"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/cbench"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/core/pdp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/obs/slo"
	"github.com/dfi-sdn/dfi/internal/testbed"
)

func init() {
	register(Scenario{
		Name: "flap-storm",
		Description: "Authentication flap storm: users log on and off in a tight " +
			"loop, each flap inserting and revoking a per-user allow rule while " +
			"admissions interleave on the flapping hosts.",
		Run: runFlapStorm,
	})
	register(Scenario{
		Name: "dhcp-churn",
		Description: "DHCP re-binding churn: hosts rebind to fresh IPs, " +
			"invalidating the binding epoch, with admissions from freshly " +
			"rebound hosts racing the invalidation.",
		Run: runDHCPChurn,
	})
	register(Scenario{
		Name: "revocation-storm",
		Description: "Mass revocation: a contractor PDP's rule population is " +
			"revoked rule-by-rule, measuring per-revocation time-to-enforcement " +
			"including the synchronous switch flush.",
		Run: runRevocationStorm,
	})
	register(Scenario{
		Name: "worm-quarantine",
		Description: "Worm-vs-quarantine race on the paper's 92-host testbed " +
			"under AT-RBAC: a business-hours foothold spreads while the " +
			"quarantine PDP isolates flagged hosts after a detection delay.",
		Run: runWormQuarantine,
	})
	register(Scenario{
		Name: "packetin-flood",
		Description: "Packet-in flood: a cbench switch drives fuzzed new-flow " +
			"packet-ins through the full proxy + PCP stack at maximum rate; the " +
			"SLO engine must flag the flood via its packet-in rate objective.",
		Run: runPacketInFlood,
	})
}

// runFlapStorm loops seeded users through logoff/logon cycles. Every flap
// revokes and re-inserts that user's allow rule (the auth-triggered policy
// mutation) and unbinds/rebinds the user↔host edge, while admissions from
// the flapping host interleave — first under the live rule, then after the
// revoke against default deny.
func runFlapStorm(cfg Config) (*Result, error) {
	c, err := newCampus(cfg)
	if err != nil {
		return nil, err
	}
	defer c.sys.Close()
	if err := c.pm.RegisterPDP("campus-auth", 50); err != nil {
		return nil, err
	}
	flaps := 2000
	if cfg.Quick {
		flaps = 200
	}
	var tteSamples, admitSamples []time.Duration
	engine := c.newEngine()
	defer engine.Close()
	engine.Evaluate()

	start := time.Now()
	for i := 0; i < flaps; i++ {
		h := c.pickHost()
		peer := c.pickHost()

		// Logon: rebind the user and emit their allow rule.
		c.erm.BindUserHost(h.user, h.name)
		w := time.Now()
		id, err := c.pm.Insert(policy.Rule{
			PDP:    "campus-auth",
			Action: policy.ActionAllow,
			Src:    policy.EndpointSpec{User: h.user},
		})
		if err != nil {
			return nil, fmt.Errorf("flap %d insert: %w", i, err)
		}
		tteSamples = append(tteSamples, time.Since(w))

		// Admissions under the live rule.
		admitSamples = append(admitSamples,
			c.admit(h, peer, uint16(10000+i%50000)),
			c.admit(h, peer, uint16(11000+i%50000)))

		// Logoff: revoke the rule and drop the binding.
		w = time.Now()
		if err := c.pm.Revoke(id); err != nil {
			return nil, fmt.Errorf("flap %d revoke: %w", i, err)
		}
		tteSamples = append(tteSamples, time.Since(w))
		c.erm.UnbindUserHost(h.user, h.name)

		// One admission against default deny after the revoke.
		admitSamples = append(admitSamples, c.admit(h, peer, uint16(12000+i%50000)))

		// Rebind so the campus stays fully bound for later picks.
		c.erm.BindUserHost(h.user, h.name)
	}
	elapsed := time.Since(start)

	res := &Result{
		Entities: c.entities(),
		Switches: len(c.switches),
		Metrics: []Metric{
			durationMetric("mutation_tte", tteSamples),
			durationMetric("admission_latency", admitSamples),
			rateMetric("flaps", uint64(flaps), float64(flaps)/elapsed.Seconds()),
		},
		SLOs: engineVerdicts(engine),
	}
	return res, nil
}

// runDHCPChurn rotates hosts onto fresh IP leases. Each rebind tears down
// the host↔IP and IP↔MAC edges and rebuilds them in a reserved lease
// subnet, bumping the binding epoch; admissions from rebound hosts must
// resolve through the fresh bindings (stale cache entries are re-resolved,
// not served).
func runDHCPChurn(cfg Config) (*Result, error) {
	c, err := newCampus(cfg)
	if err != nil {
		return nil, err
	}
	defer c.sys.Close()
	allowAll, err := pdp.NewAllowAll(c.pm)
	if err != nil {
		return nil, err
	}
	if err := allowAll.Enable(); err != nil {
		return nil, err
	}
	rebinds := 2000
	if cfg.Quick {
		rebinds = 200
	}
	cacheEvents := c.reg.FindCounterVec("dfi_pcp_cache_events_total")
	staleBefore := cacheEvents.With("stale").Value()

	var admitSamples []time.Duration
	engine := c.newEngine()
	defer engine.Close()
	engine.Evaluate()

	start := time.Now()
	for i := 0; i < rebinds; i++ {
		idx := c.rng.Intn(len(c.hosts))
		h := &c.hosts[idx]

		// Lease expiry: drop the old chain, rebind in the lease subnet.
		c.erm.UnbindIPMAC(h.ip, h.mac)
		c.erm.UnbindHostIP(h.name, h.ip)
		h.ip = netpkt.IPv4{10, byte(200 + (i>>16)&0x0f), byte(i >> 8), byte(i)}
		c.erm.BindHostIP(h.name, h.ip)
		c.erm.BindIPMAC(h.ip, h.mac)

		// Admissions from the freshly rebound host (and one toward it).
		peer := c.pickHost()
		admitSamples = append(admitSamples,
			c.admit(*h, peer, uint16(20000+i%40000)),
			c.admit(peer, *h, uint16(21000+i%40000)))
	}
	elapsed := time.Since(start)
	stale := cacheEvents.With("stale").Value() - staleBefore

	res := &Result{
		Entities: c.entities(),
		Switches: len(c.switches),
		Metrics: []Metric{
			durationMetric("admission_latency", admitSamples),
			rateMetric("rebinds", uint64(rebinds), float64(rebinds)/elapsed.Seconds()),
			countMetric("cache_stale_events", "events", stale),
		},
		SLOs: engineVerdicts(engine),
	}
	return res, nil
}

// runRevocationStorm builds a contractor PDP's rule population, then
// revokes it rule-by-rule — the paper's deprovisioning burst — measuring
// each revocation's wall-clock time-to-enforcement through the synchronous
// switch flush. Admissions after the storm confirm the data path survived.
func runRevocationStorm(cfg Config) (*Result, error) {
	c, err := newCampus(cfg)
	if err != nil {
		return nil, err
	}
	defer c.sys.Close()
	if err := c.pm.RegisterPDP("contractor", 60); err != nil {
		return nil, err
	}
	rules := 1500
	if cfg.Quick {
		rules = 150
	}

	// Provision: one allow rule per contractor toward a seeded peer.
	ids := make([]policy.RuleID, 0, rules)
	var insertSamples []time.Duration
	for i := 0; i < rules; i++ {
		h := c.hosts[i%len(c.hosts)]
		peer := c.pickHost()
		w := time.Now()
		id, err := c.pm.Insert(policy.Rule{
			PDP:    "contractor",
			Action: policy.ActionAllow,
			Src:    policy.EndpointSpec{User: h.user},
			Dst:    policy.EndpointSpec{IP: &peer.ip},
		})
		if err != nil {
			return nil, fmt.Errorf("provision %d: %w", i, err)
		}
		insertSamples = append(insertSamples, time.Since(w))
		ids = append(ids, id)
	}

	engine := c.newEngine()
	defer engine.Close()
	engine.Evaluate()

	// The storm: revoke every contractor rule individually, in seeded
	// random order (mass revocation arrives unordered in practice).
	c.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var revokeSamples []time.Duration
	start := time.Now()
	for i, id := range ids {
		w := time.Now()
		if err := c.pm.Revoke(id); err != nil {
			return nil, fmt.Errorf("revoke %d: %w", i, err)
		}
		revokeSamples = append(revokeSamples, time.Since(w))
	}
	elapsed := time.Since(start)

	// Post-storm admissions: the control plane must still answer.
	var admitSamples []time.Duration
	probes := 50
	if cfg.Quick {
		probes = 20
	}
	for i := 0; i < probes; i++ {
		admitSamples = append(admitSamples,
			c.admit(c.pickHost(), c.pickHost(), uint16(30000+i)))
	}

	revoked := durationMetric("revocation_tte", revokeSamples)
	res := &Result{
		Entities: c.entities(),
		Switches: len(c.switches),
		Metrics: []Metric{
			revoked,
			durationMetric("insert_tte", insertSamples),
			durationMetric("admission_latency", admitSamples),
			rateMetric("revocations", uint64(len(ids)), float64(len(ids))/elapsed.Seconds()),
		},
		SLOs: append(engineVerdicts(engine),
			gate("revocation-p99", "revocation_tte", 0.99, 0.050, revoked.P99)),
	}
	return res, nil
}

// runWormQuarantine races the paper's worm against the quarantine PDP on
// the 92-host testbed under AT-RBAC, entirely on the simulated clock: a
// business-hours foothold spreads through logged-on reachability while
// detection isolates infected hosts after a fixed delay. The run is fully
// deterministic per seed.
func runWormQuarantine(cfg Config) (*Result, error) {
	const (
		footholdAt = 9*time.Hour + 30*time.Minute
		horizon    = 11 * time.Hour
	)
	reg := obs.NewRegistry()
	tb, err := testbed.New(testbed.Config{
		Condition:       testbed.ConditionATRBAC,
		Seed:            cfg.Seed,
		QuarantineDelay: 5 * time.Minute,
		Metrics:         reg,
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	foothold := tb.FootholdHost(footholdAt)
	infection, err := tb.RunInfection(foothold, footholdAt, horizon)
	if err != nil {
		return nil, err
	}

	total := len(tb.EndHosts())
	infected := len(infection.Infections)
	metrics := []Metric{
		countMetric("infections", "hosts", uint64(infected)),
		countMetric("population", "hosts", uint64(total)),
		countMetric("admissions", "packet_ins", tb.Admissions()),
	}
	if first, ok := infection.FirstSpread(); ok {
		metrics = append(metrics, durationMetric("first_spread", []time.Duration{first}))
	}
	var slos []Verdict
	if tte := reg.FindHistogram("dfi_policy_mutation_tte_seconds"); tte != nil {
		snap := tte.Snapshot()
		metrics = append(metrics, snapshotMetric("mutation_tte", snap))
		slos = append(slos, gate("quarantine-tte-p99", "mutation_tte", 0.99,
			0.050, snap.Quantile(0.99).Seconds()))
	}
	// Containment: the quarantine race must leave part of the campus
	// uninfected — baseline (no access control) infects all hosts.
	slos = append(slos, gate("worm-containment", "infections", 0,
		float64(total-1), float64(infected)))

	res := &Result{
		// The paper's topology: 92 end hosts across 13 enclave switches
		// plus one core.
		Entities: len(tb.Hosts()),
		Switches: 14,
		Metrics:  metrics,
		SLOs:     slos,
	}
	return res, nil
}

// runPacketInFlood drives the full System — proxy, PCP, admission queue —
// with cbench's fuzzed new-flow packet-ins: a serial latency phase, then an
// unpaced throughput phase. The System carries a packet-in rate SLO that
// the flood must trip (the detection check), while admission-stage latency
// under flood stays inside the campus SLO.
func runPacketInFlood(cfg Config) (*Result, error) {
	latencyFlows, floodFor := 2000, 2*time.Second
	if cfg.Quick {
		latencyFlows, floodFor = 300, 600*time.Millisecond
	}

	reg := obs.NewRegistry()
	packetIns := func() uint64 {
		if c := reg.FindCounter("dfi_pcp_processed_total"); c != nil {
			return c.Value()
		}
		return 0
	}
	ctl := controller.New(controller.Config{MaxConcurrent: 256})
	sys, err := dfi.New(
		dfi.WithMetrics(reg),
		dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
			a, b := bufpipe.New()
			go func() { _ = ctl.Serve(b) }()
			return a, nil
		}),
		dfi.WithAdmissionQueue(1024, 8),
		// A flood-detection objective: sustained packet-in rate above
		// 500/s over the window marks the objective violated.
		dfi.WithSLO(slo.Rate("packetin-rate", "dfi_pcp_processed_total",
			packetIns, 500, time.Minute)),
		dfi.WithSLOInterval(-1),
	)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	swEnd, cpEnd := bufpipe.New()
	go func() { _ = sys.ServeSwitch(cpEnd) }()
	bench, err := cbench.New(swEnd, cbench.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := bench.WaitReady(5 * time.Second); err != nil {
		return nil, err
	}

	stages := reg.FindHistogramVec("dfi_pcp_stage_seconds").With("total")
	before := stages.Snapshot()
	sys.SLO().Evaluate() // baseline sample for the rate window

	lat, err := bench.Latency(latencyFlows)
	if err != nil {
		return nil, fmt.Errorf("latency phase: %w", err)
	}
	tput, err := bench.Throughput(floodFor, 0)
	if err != nil {
		return nil, fmt.Errorf("throughput phase: %w", err)
	}

	interval := stages.Snapshot().Sub(before)
	admission := snapshotMetric("admission_stage_total", interval)

	// The detection check: after the flood, the rate objective must be in
	// violation.
	detected := false
	var floodRate float64
	for _, st := range sys.SLO().Evaluate().Statuses {
		if st.Name == "packetin-rate" {
			detected = !st.OK
			floodRate = st.Value
		}
	}

	setup := Metric{
		Name: "flow_setup_latency", Unit: "seconds",
		Count: lat.N(), Mean: lat.Mean().Seconds(),
	}
	res := &Result{
		Entities: 0,
		Switches: 1,
		Metrics: []Metric{
			admission,
			setup,
			rateMetric("flood_throughput", bench.Responses(), tput),
			rateMetric("packet_ins", packetIns(), floodRate),
		},
		SLOs: []Verdict{
			gateMin("flood-throughput", "flood_throughput", 200, tput),
			gate("flood-admission-p99", "admission_stage_total", 0.99,
				0.025, admission.P99),
			gateMin("flood-detected", "packetin-rate", 1, boolGate(detected)),
		},
	}
	return res, nil
}

// boolGate maps a pass/fail check onto gateMin's numeric domain.
func boolGate(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
