package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dfi-sdn/dfi/benchmark/gen"
	"github.com/dfi-sdn/dfi/benchmark/ledger"
	"github.com/dfi-sdn/dfi/benchmark/rig"
)

// workload is one traffic mix. Every workload runs the same sequence on
// the same seeded population and policy — set-up, a discarded warm-up, a
// fixed-rate open loop, a small-frame and a large-frame saturation window,
// and the mutation chain — so every metric exists on every workload; what
// differs is which layers the load reaches.
type workload struct {
	Name string
	Why  string

	// Load connections carry the primary operation; passive ones are held.
	Load, Passive int
	// Relay: the operation is a table-1 packet-in answered by the
	// controller stub; otherwise a table-0 packet-in answered by dfid's
	// verdict.
	Relay bool
	// HotSet, when positive, replays that many flows in a cycle; 0 sends
	// flows dfid has never seen.
	HotSet int
	// Rate is the fixed-rate phase's total rate in operations per second.
	Rate float64
	// MixedSizes alternates small and large payloads in the fixed-rate
	// phase.
	MixedSizes bool
	// MutateOpsPerSec > 0 runs the mutation chain beside the load at that
	// rate; 0 runs it back to back after the load.
	MutateOpsPerSec float64
}

var workloads = []workload{
	{
		Name: "admit-cold",
		Why:  "every packet-in is a never-seen flow, so the decision cache misses and entity resolve, policy lookup and flow-mod compile do the work",
		Load: 2, Rate: 5000,
	},
	{
		Name: "admit-hot",
		Why:  "a 2,048-flow working set fits the decision cache, so wire codec, relay and install dominate while entity and policy idle",
		Load: 2, HotSet: 2048, Rate: 5000,
	},
	{
		Name: "relay-passthrough",
		Why:  "table-1 packet-ins bypass admission entirely and 256 idle sessions are held: per-frame relay cost and per-connection state",
		Load: 2, Passive: 256, Relay: true, Rate: 10000, MixedSizes: true,
	},
	{
		Name: "mutate-fanout",
		Why:  "policy edits and quarantines at 40 ops/s fan out to 8 switches while a reader admits a 256-flow hot set: writes beside reads",
		Load: 1, Passive: 8, HotSet: 256, Rate: 1000, MutateOpsPerSec: 40,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the knobs of one run that are not part of a workload.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Dfid    string
	OutDir  string
	// Setups and Rounds are setupsPerRun and roundsPerSetup, except in the
	// smoke test, which has no time for that many.
	Setups, Rounds int
}

// result is one run's outcome.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Valid     bool           `json:"valid"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Samples   map[string]int `json:"samples"`
	// Metrics holds what the run measured of the metric set it was asked
	// for. A per-layer metric the workload did not exercise is absent, not 0.
	Metrics map[string]float64 `json:"metrics"`
	// Diagnostics carries what a run measured beyond the metric set it was
	// asked for (a traced run's end-to-end numbers, for instance).
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	// Series keeps the raw samples of the mutation chain, a few dozen
	// per run, in milliseconds and in the order they were taken.
	Series map[string][]float64 `json:"series,omitempty"`
	Host   fingerprint          `json:"host"`
}

// phaseShare splits a round over the timed phases. A workload whose
// mutation chain runs beside the load gives the tail's share to the load.
type phaseShare struct{ fixed, satSmall, satLarge, tail float64 }

var (
	sharesWithTail = phaseShare{0.32, 0.20, 0.15, 0.33}
	sharesBeside   = phaseShare{0.50, 0.28, 0.22, 0}
)

const (
	// A run is setupsPerRun dfid instances, each set up from scratch and
	// driven through roundsPerSetup rounds of every phase; --seconds is split
	// evenly over all the rounds. Both are part of what every metric means
	// (setup_s is the median of that many set-ups, op_p50_us the median over
	// that many rounds' stretches), so neither is a flag.
	setupsPerRun   = 3
	roundsPerSetup = 12

	warmup    = time.Second // per dfid instance, on top of --seconds, discarded
	satWindow = 64          // closed-loop window per connection

	// fixedParts is how many separate stretches of load a round's fixed-rate
	// phase is made of. A request crosses four to six thread wake-ups between
	// the two processes, and each is cheap or dear depending on whether the
	// thread woken was still running; which it is settles when a stretch
	// begins and holds until it ends, so one stretch's median latency sits on
	// one of a few plateaus some tens of microseconds apart. The plateaus of
	// successive stretches are independent, so the median over many short
	// stretches is steady where the median of a few long ones is not.
	fixedParts = 4
)

// phaseTotals sums what the load connections measured in one phase.
type phaseTotals struct {
	sent, completed, inTime, bad, packetOuts int64
	elapsed                                  time.Duration
	lat, late                                []int64
	spans                                    []rig.Span
}

// runPhase drives one phase on every load connection at once.
func runPhase(r *rig.Rig, seqs []uint32, mk func(conn int) rig.Phase) (phaseTotals, error) {
	results := make([]rig.PhaseResult, len(r.Load))
	errs := make([]error, len(r.Load))
	// The senders of an open loop share one start, a moment ahead so that all
	// of them are running by then: their stagger is then exact.
	start := r.Now() + time.Millisecond
	var wg sync.WaitGroup
	for i, s := range r.Load {
		wg.Add(1)
		go func(i int, s *rig.Switch) {
			defer wg.Done()
			p := mk(i)
			if p.Rate > 0 {
				p.Start = start
			}
			results[i], errs[i] = s.Run(p, &seqs[i])
		}(i, s)
	}
	wg.Wait()
	var t phaseTotals
	for i, res := range results {
		if errs[i] != nil {
			return t, errs[i]
		}
		t.sent += res.Sent
		t.completed += res.Completed
		t.inTime += res.InTime
		t.bad += res.Wrong + res.Lost + res.Stray
		t.packetOuts += res.PacketOuts
		t.elapsed = max(t.elapsed, res.Elapsed)
		t.lat = append(t.lat, res.LatNs...)
		t.late = append(t.late, res.LateNs...)
		t.spans = append(t.spans, res.Spans...)
	}
	return t, nil
}

// connFlows splits the generated flow lists over the load connections and
// resolves them to hosts.
func connFlows(in *gen.Inputs, conns int) (allow, deny [][]rig.LoadFlow) {
	split := func(fs []gen.Flow) [][]rig.LoadFlow {
		out := make([][]rig.LoadFlow, conns)
		for i, f := range fs {
			c := i % conns
			out[c] = append(out[c], rig.LoadFlow{
				Src: &in.Hosts[f.Src], Dst: &in.Hosts[f.Dst], InPort: rig.InPort(f.Src), DPort: f.DPort, Allow: f.Allow})
		}
		return out
	}
	return split(in.Allow), split(in.Deny)
}

// nextFlow returns a connection's flow sequence: four allowed flows, then
// a denied one. A hot sequence cycles through its first hot requests with
// fixed source ports; a cold one pairs every request with a source port of
// its own, so no flow repeats.
func nextFlow(allow, deny []rig.LoadFlow, hot int) func(seq uint32) (*rig.LoadFlow, uint16) {
	pick := func(seq uint32) *rig.LoadFlow {
		if seq%5 == 4 {
			return &deny[int(seq/5)%len(deny)]
		}
		return &allow[int(seq-seq/5)%len(allow)]
	}
	if hot > 0 {
		return func(seq uint32) (*rig.LoadFlow, uint16) {
			j := seq % uint32(hot)
			return pick(j), rig.SlotPort(j)
		}
	}
	return func(seq uint32) (*rig.LoadFlow, uint16) { return pick(seq), rig.SlotPort(seq) }
}

// rounds accumulates what the rounds of a run measured. A run is several
// dfid instances, each set up from scratch and then driven through several
// short rounds of every phase, so each metric is sampled across the whole
// length of the run and a slow few seconds of the host move one sample of
// it, not its value.
type rounds struct {
	setups                  []float64 // seconds, one per instance
	opP50, opP99            []float64 // microseconds, one per round
	tracedP50               []float64
	satOps, satMB           []float64 // one per round
	cpu                     time.Duration
	fixedOps                int64
	late                    []int64
	revoke, quarantine      []int64 // nanoseconds, one per mutation
	apiToFirst, firstToLast []int64
	apiReturn               []int64
	mutations               int64
	mutating                time.Duration
	counters                map[string]float64 // deltas over the fixed-rate phases
	stageBefore, stageAfter rig.Metrics        // first and last scrape of the last instance
	scrape                  time.Duration
	peakKB                  int64
	spans                   []rig.Span
}

// running is the rig of the run in progress, for the signal handler.
var running atomic.Pointer[rig.Rig]

// run executes one workload once.
func run(w workload, o options) (*result, error) {
	in, err := gen.New(o.Seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return nil, err
	}
	policyFile, err := in.Write(filepath.Join(o.OutDir, "inputs"))
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.Name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Valid: true,
		Samples: map[string]int{}, Metrics: map[string]float64{}, Diagnostics: map[string]float64{},
		Host: hostFingerprint(),
	}

	cfg := rig.Config{
		In: in, DfidBinary: o.Dfid, PolicyFile: policyFile, Dir: o.OutDir,
		LoadSwitches: w.Load, PassiveSwitches: w.Passive, Relay: w.Relay,
		ProbeLoad: w.MutateOpsPerSec == 0,
	}
	var next []func(uint32) (*rig.LoadFlow, uint16)
	if !w.Relay {
		allow, deny := connFlows(in, w.Load)
		for c := 0; c < w.Load; c++ {
			next = append(next, nextFlow(allow[c], deny[c], w.HotSet/w.Load))
			cfg.Learn = append(cfg.Learn, append(append([]rig.LoadFlow(nil), allow[c]...), deny[c]...))
		}
	}

	shares := sharesWithTail
	if w.MutateOpsPerSec > 0 {
		shares = sharesBeside
	}
	roundTime := o.Seconds / float64(o.Setups*o.Rounds)
	secs := func(share float64) time.Duration { return time.Duration(share * roundTime * float64(time.Second)) }
	perConn := w.Rate / float64(w.Load)
	stagger := time.Duration(float64(time.Second) / w.Rate)
	fixed := func(d time.Duration, trace bool) func(int) rig.Phase {
		return func(c int) rig.Phase {
			p := rig.Phase{Rate: perConn, Duration: d, Offset: time.Duration(c) * stagger, Trace: trace}
			if !w.Relay {
				p.Next = next[c]
			}
			if w.MixedSizes {
				p.Large = func(seq uint32) bool { return seq%2 == 1 }
			}
			return p
		}
	}
	saturate := func(d time.Duration, large bool) func(int) rig.Phase {
		return func(c int) rig.Phase {
			p := rig.Phase{Window: satWindow, Duration: d, Large: func(uint32) bool { return large }}
			if !w.Relay {
				p.Next = next[c]
			}
			return p
		}
	}
	count := func(t phaseTotals) {
		res.Attempted += t.sent
		res.Failed += t.bad
		if w.Relay {
			// Every relayed packet-in is answered by a flow-mod and a
			// packet-out; a missing packet-out is a lost frame.
			res.Failed += max(t.completed-t.packetOuts, 0)
		}
	}

	acc := rounds{counters: map[string]float64{}}
	var r *rig.Rig
	defer func() {
		if r != nil {
			r.Close()
		}
	}()
	for inst := 0; inst < o.Setups; inst++ {
		if r != nil {
			r.Close()
			acc.spans = append(acc.spans, r.TakeSpans()...)
		}
		start := time.Now()
		if r, err = rig.Setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		acc.setups = append(acc.setups, time.Since(start).Seconds())
		running.Store(r)
		res.Attempted += r.SetupOps
		res.Failed += r.SetupErr
		seqs := make([]uint32, w.Load)

		// Warm-up: caches fill, the runtime settles. Discarded but checked.
		if err := r.KeepAwake(true); err != nil {
			return nil, err
		}
		warm, err := runPhase(r, seqs, fixed(warmup, false))
		if err != nil {
			return nil, err
		}
		count(warm)
		if err := r.KeepAwake(false); err != nil {
			return nil, err
		}

		// The mutation chain beside the load, when the workload says so.
		var beside rig.Enforcement
		var chain sync.WaitGroup
		if w.MutateOpsPerSec > 0 {
			chain.Add(1)
			until := r.Now() + time.Duration(o.Rounds)*(secs(shares.fixed)+secs(shares.satSmall)+secs(shares.satLarge))
			go func(r *rig.Rig) {
				defer chain.Done()
				beside = r.Enforce(until, w.MutateOpsPerSec, o.Trace)
			}(r)
		}

		for round := 0; round < o.Rounds; round++ {
			// Every mutation bumps the policy epoch, which empties the decision
			// cache: after the chain that ended the last round, a workload with
			// a working set replays it once, as the warm-up did, so the timed
			// phases see the cache the workload is about. Discarded but checked.
			if round > 0 && w.HotSet > 0 && w.MutateOpsPerSec == 0 {
				refill, err := runPhase(r, seqs, func(c int) rig.Phase {
					return rig.Phase{Window: satWindow, Count: int64(w.HotSet / w.Load), Duration: warmup, Next: next[c]}
				})
				if err != nil {
					return nil, err
				}
				count(refill)
			}

			// Fixed-rate phase, bracketed by dfid's own accounting. It runs as
			// fixedParts separate stretches of load, each giving one sample of
			// the median latency (see fixedParts). A traced run follows every
			// stretch with one that records spans; the two medians give the
			// cost of recording.
			before, scrapeTime, err := r.Dfid.Scrape()
			if err != nil {
				return nil, err
			}
			if round == 0 {
				acc.stageBefore = before
			}
			procBefore, err := r.Dfid.Proc()
			if err != nil {
				return nil, err
			}
			d := secs(shares.fixed) / fixedParts
			if o.Trace {
				d /= 2
			}
			if err := r.KeepAwake(true); err != nil {
				return nil, err
			}
			for part := 0; part < fixedParts; part++ {
				fix, err := runPhase(r, seqs, fixed(d, false))
				if err != nil {
					return nil, err
				}
				count(fix)
				acc.fixedOps += fix.completed
				acc.late = append(acc.late, fix.late...)
				acc.opP50 = append(acc.opP50, quantile(fix.lat, 0.50)/1e3)
				acc.opP99 = append(acc.opP99, quantile(fix.lat, 0.99)/1e3)
				res.Samples["op"] += len(fix.lat)
				if !o.Trace {
					continue
				}
				traced, err := runPhase(r, seqs, fixed(d, true))
				if err != nil {
					return nil, err
				}
				count(traced)
				acc.fixedOps += traced.completed
				acc.late = append(acc.late, traced.late...)
				acc.tracedP50 = append(acc.tracedP50, quantile(traced.lat, 0.50)/1e3)
				acc.spans = append(acc.spans, traced.spans...)
			}
			if err := r.KeepAwake(false); err != nil {
				return nil, err
			}
			procAfter, err := r.Dfid.Proc()
			if err != nil {
				return nil, err
			}
			after, _, err := r.Dfid.Scrape()
			if err != nil {
				return nil, err
			}
			acc.cpu += procAfter.CPU - procBefore.CPU
			for name, v := range after {
				acc.counters[name] += v - before[name]
			}
			acc.stageAfter, acc.scrape = after, scrapeTime

			small, err := runPhase(r, seqs, saturate(secs(shares.satSmall), false))
			if err != nil {
				return nil, err
			}
			count(small)
			acc.satOps = append(acc.satOps, float64(small.inTime)/small.elapsed.Seconds())
			res.Samples["sat_small"] += int(small.completed)
			large, err := runPhase(r, seqs, saturate(secs(shares.satLarge), true))
			if err != nil {
				return nil, err
			}
			count(large)
			acc.satMB = append(acc.satMB, float64(large.inTime)*rig.LargePayload/1e6/large.elapsed.Seconds())
			res.Samples["sat_large"] += int(large.completed)

			if w.MutateOpsPerSec == 0 {
				acc.addEnforcement(res, r.Enforce(r.Now()+secs(shares.tail), 0, o.Trace))
			}
		}
		chain.Wait()
		if w.MutateOpsPerSec > 0 {
			acc.addEnforcement(res, beside)
		}
		res.Failed += r.Ctl.DeniedSeen.Load() + r.Ctl.RelayWrong.Load()
		ps, err := r.Dfid.Proc()
		if err != nil {
			return nil, err
		}
		acc.peakKB = max(acc.peakKB, ps.PeakKB)
	}

	// A generator that cannot keep its schedule did not offer the stated
	// load. Latency is timed from each request's due time, so lateness is
	// already inside the numbers; a run is thrown away when its sends ran,
	// on average, more than half the connection's send interval late: the
	// generator was then half a request behind its schedule throughout. (Mean
	// lateness over the interval is the mean number of sends overdue. Clean
	// runs read 0.01 to 0.2 on this host, runs beside two to six CPU-bound
	// neighbours 0.6 to 5.6; the median does not tell them apart, because a
	// sender that does get the CPU spins up to its instant, and the 99th
	// percentile condemns clean runs too. See the README.)
	interval := 1e9 / perConn
	genLateMean := mean(acc.late)
	genLate := quantile(acc.late, 0.99) / 1e3
	res.Valid = genLateMean <= interval/2
	res.Diagnostics["gen_late_mean_us"] = genLateMean / 1e3
	res.Diagnostics["gen_late_p50_us"] = quantile(acc.late, 0.50) / 1e3
	res.Diagnostics["gen_late_p95_us"] = quantile(acc.late, 0.95) / 1e3
	res.Diagnostics["gen_late_p99_us"] = genLate

	// End-to-end metrics: the median round, the median set-up, every
	// mutation of the run. (quantile sorts, so the series are copied first.)
	res.Series = map[string][]float64{"revoke_tte_ms": toMillis(acc.revoke), "quarantine_tte_ms": toMillis(acc.quarantine),
		"op_p50_us": acc.opP50, "sat_ops_per_s": acc.satOps, "sat_mb_per_s": acc.satMB, "setup_s": acc.setups}
	e2e := map[string]float64{
		"setup_s":               medianF(acc.setups),
		"op_p50_us":             medianF(acc.opP50),
		"op_p99_us":             medianF(acc.opP99),
		"sat_ops_per_s":         medianF(acc.satOps),
		"sat_mb_per_s":          medianF(acc.satMB),
		"revoke_tte_mean_ms":    mean(acc.revoke) / 1e6,
		"revoke_tte_p50_ms":     quantile(acc.revoke, 0.50) / 1e6,
		"revoke_tte_p90_ms":     quantile(acc.revoke, 0.90) / 1e6,
		"quarantine_tte_p50_ms": quantile(acc.quarantine, 0.50) / 1e6,
		"cpu_ms_per_kop":        float64(acc.cpu) / float64(time.Millisecond) / (float64(acc.fixedOps) / 1e3),
		"rss_peak_mb":           float64(acc.peakKB) / 1024,
	}
	mutationRate := float64(acc.mutations) / acc.mutating.Seconds()
	res.Samples["revoke_tte"] = len(acc.revoke)
	res.Samples["quarantine_tte"] = len(acc.quarantine)
	res.Samples["setup"] = len(acc.setups)
	res.Samples["rounds"] = len(acc.opP50)

	if !o.Trace {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = e2e[m.Name]
		}
		for _, name := range []string{"op_p99_us", "revoke_tte_p50_ms", "revoke_tte_p90_ms"} {
			res.Diagnostics[name] = e2e[name]
		}
		res.Diagnostics["mutation_ops_per_s"] = mutationRate
		return res, nil
	}

	// Per-layer metrics. First what only the live dfid can tell.
	pl := res.Metrics
	delta := func(name string) float64 { return acc.counters[name] }
	hits, misses := delta(`dfi_pcp_cache_events_total{event="hit"}`), delta(`dfi_pcp_cache_events_total{event="miss"}`)
	if hits+misses > 0 {
		pl["pcp.cache_hit_ratio"] = hits / (hits + misses)
	}
	pl["pcp.cache_stale"] = delta(`dfi_pcp_cache_events_total{event="stale"}`)
	pl["pcp.queue_drops"] = delta("dfi_pcp_queue_drops_total")
	// A histogram that observed nothing has no quantile, and gives 0.
	histogram := func(metric, family, labels string) {
		if v := rig.HistogramQuantile(acc.stageBefore, acc.stageAfter, family, labels, 0.5); v > 0 {
			pl[metric] = 1e6 * v
		}
	}
	histogram("pcp.stage_binding_p50_us", "dfi_pcp_stage_seconds", `stage="binding_query",`)
	histogram("pcp.stage_policy_p50_us", "dfi_pcp_stage_seconds", `stage="policy_query",`)
	histogram("pcp.stage_total_p50_us", "dfi_pcp_stage_seconds", `stage="total",`)
	histogram("proxy.forward_p50_us", "dfi_proxy_forward_seconds", "")
	pl["proxy.overload_drops"] = delta("dfi_proxy_overload_drops_total")
	pl["proxy.connections"] = acc.stageAfter["dfi_proxy_connections"]
	pl["proxy.goroutines"] = acc.stageAfter["dfi_go_goroutines"]
	pl["entity.bindings"] = acc.stageAfter["dfi_entity_bindings"]
	pl["policy.snapshot_rebuilds"] = delta("dfi_policy_snapshot_rebuilds_total")
	pl["bus.dropped"] = acc.stageAfter["dfi_bus_dropped_total"]
	pl["obs.spans_committed"] = delta("dfi_span_committed_total")
	pl["obs.metrics_scrape_ms"] = float64(acc.scrape) / float64(time.Millisecond)
	pl["bench.gen_late_p99_us"] = genLate
	pl["bench.mutation_ops_per_s"] = mutationRate
	pl["bench.trace_overhead_ratio"] = medianF(acc.tracedP50) / e2e["op_p50_us"]
	pl["diag.op_p99_us"] = e2e["op_p99_us"]
	pl["diag.revoke_tte_p50_ms"] = e2e["revoke_tte_p50_ms"]
	pl["diag.revoke_tte_p90_ms"] = e2e["revoke_tte_p90_ms"]

	// Unloaded latency: one request at a time, the base the ledger's rows
	// are summed against.
	seqs := make([]uint32, w.Load)
	for i := range seqs {
		seqs[i] = 1 << 30 // flows the rounds never reached
	}
	if err := r.KeepAwake(true); err != nil {
		return nil, err
	}
	unloaded, err := runPhase(r, seqs, func(c int) rig.Phase {
		p := rig.Phase{Window: 1, Duration: time.Second}
		if !w.Relay {
			p.Next = next[c]
		}
		if c > 0 {
			p.Count = 1 // one connection measures; the others stand by
		}
		return p
	})
	if err != nil {
		return nil, err
	}
	count(unloaded)
	if err := r.KeepAwake(false); err != nil {
		return nil, err
	}
	unloadedP50 := quantile(unloaded.lat, 0.5) / 1e3

	// Boundary spans: medians, and the spans themselves into trace.json.
	r.Close()
	spans := append(acc.spans, r.TakeSpans()...)
	byName := map[string][]int64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.EndNs-s.StartNs)
	}
	for _, name := range []string{"hop.sw_to_ctl_us", "hop.sw_to_flowmod_us", "hop.ctl_reply_to_sw_us"} {
		if len(byName[name]) > 0 { // a hop the workload's operation does not cross has no spans
			pl[name] = quantile(byName[name], 0.5) / 1e3
		}
	}
	pl["hop.api_to_first_sw_ms"] = quantile(acc.apiToFirst, 0.5) / 1e6
	pl["hop.first_to_last_sw_ms"] = quantile(acc.firstToLast, 0.5) / 1e6
	pl["hop.api_return_ms"] = quantile(acc.apiReturn, 0.5) / 1e6
	if err := writeJSON(filepath.Join(o.OutDir, "trace.json"), struct {
		Host  fingerprint `json:"host"`
		Spans []rig.Span  `json:"spans"`
	}{res.Host, spans}); err != nil {
		return nil, err
	}

	// What a held session costs, by the clock and by dfid's resident set,
	// on a dfid of its own that holds the policy and nothing else: at the end
	// of a run the heap has slack that swallows the sessions' memory whole.
	const idle = 128 // twice as many descriptors in dfid, under a 1,024 limit
	bare, err := rig.Setup(rig.Config{In: in, DfidBinary: o.Dfid, PolicyFile: policyFile, Dir: o.OutDir, Bare: true})
	if err != nil {
		return nil, fmt.Errorf("bare set-up: %w", err)
	}
	r = bare // the other rig is closed; the deferred call closes this one
	running.Store(r)
	rssBefore, err := r.Dfid.Proc()
	if err != nil {
		return nil, err
	}
	idleTime, err := r.AddPassive(idle)
	if err != nil {
		return nil, err
	}
	rssAfter, err := r.Dfid.Proc()
	if err != nil {
		return nil, err
	}
	r.Close()
	pl["proxy.session_setup_us"] = float64(idleTime) / float64(time.Microsecond) / idle
	pl["proxy.rss_per_idle_conn_kb"] = float64(rssAfter.RSSKB-rssBefore.RSSKB) / idle

	// The layer ledger, measured with dfid gone and the host quiet.
	rows, err := ledger.Run(in)
	if err != nil {
		return nil, err
	}
	for name, v := range rows {
		pl[name] = v
	}

	// How much of the unloaded end-to-end medians the rows on the blocking
	// path explain. The rest — system calls, queue hand-offs, scheduling —
	// is reported, not asserted.
	var opPath float64
	switch {
	case w.Relay:
		opPath = 2*pl["proxy.forward_ns"] + 2*pl["openflow.frame_shift_ns"]
	case w.HotSet > 0:
		opPath = pl["openflow.decode_packetin_ns"] + pl["pcp.process_hit_ns"] + pl["openflow.encode_flowmod_ns"]
	default:
		opPath = pl["openflow.decode_packetin_ns"] + pl["pcp.process_miss_ns"] + pl["openflow.encode_flowmod_ns"]
	}
	pl["ledger.op_unloaded_p50_us"] = unloadedP50
	pl["ledger.op_attributed_ratio"] = opPath / 1e3 / unloadedP50
	pl["ledger.op_residual_us"] = unloadedP50 - opPath/1e3
	revokePath := pl["policytext.setsource_1line_ns"] + pl["pcp.revoke_flush_8sw_ns"]
	revokeP50 := e2e["revoke_tte_p50_ms"] * 1e3
	pl["ledger.revoke_attributed_ratio"] = revokePath / 1e3 / revokeP50
	pl["ledger.revoke_residual_us"] = revokeP50 - revokePath/1e3

	for name, v := range e2e {
		res.Diagnostics[name] = v
	}
	return res, nil
}

// addEnforcement folds one stretch of the mutation chain into the run.
func (acc *rounds) addEnforcement(res *result, e rig.Enforcement) {
	res.Attempted += e.Attempted
	res.Failed += e.Failed
	acc.revoke = append(acc.revoke, e.RevokeTTE...)
	acc.quarantine = append(acc.quarantine, e.QuarantineTTE...)
	acc.apiToFirst = append(acc.apiToFirst, e.APIToFirst...)
	acc.firstToLast = append(acc.firstToLast, e.FirstToLast...)
	acc.apiReturn = append(acc.apiReturn, e.APIReturn...)
	acc.mutations += e.Ops
	acc.mutating += e.Elapsed
	acc.spans = append(acc.spans, e.Spans...)
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

func toMillis(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
