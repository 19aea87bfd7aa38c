// Package scenario is DFI's campus-scale proving ground: named hostile
// workloads — authentication flap storms, DHCP re-binding churn, mass
// revocation, a worm-vs-quarantine race, a packet-in flood — run against a
// fat-tree control plane with ~100k bound identifiers, each recording
// latency tails, throughput and service-level-objective verdicts.
//
// Scenarios are deterministic where the underlying machinery allows it:
// the worm race runs entirely on a simulated clock, and every workload
// derives its choices from Config.Seed. Latency distributions are measured
// on the wall clock (that is the quantity the SLOs gate), so absolute
// values vary with the machine while shapes and verdict margins are
// stable.
//
// dfi-bench -scenario <name> runs scenarios and prints their verdicts;
// TestScenariosPassQuick requires every one to pass at quick scale.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"github.com/dfi-sdn/dfi/internal/harness"
	"github.com/dfi-sdn/dfi/internal/obs"
)

// Config parameterizes one scenario run.
type Config struct {
	// Seed drives every random choice; same seed → same workload.
	Seed int64
	// Quick shrinks the campus (~5k bound identifiers instead of ~100k)
	// and the workload so a scenario finishes in seconds — the CI smoke
	// setting. Full scale is the default.
	Quick bool
}

// Metric is one measured distribution or rate, in base units (seconds for
// latencies, events for counts).
type Metric struct {
	Name  string
	Unit  string
	Count uint64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
	P999  float64
	Max   float64
	// Rate is events per second where the metric has a natural rate
	// (throughput metrics), zero otherwise.
	Rate float64
}

// Verdict is one SLO gate outcome.
type Verdict struct {
	Name      string
	Metric    string
	Quantile  float64
	Threshold float64
	Actual    float64
	Pass      bool
}

// Result is one scenario's full record.
type Result struct {
	Scenario    string
	Description string
	Seed        int64
	Quick       bool
	Entities    int
	Switches    int
	DurationSec float64
	Metrics     []Metric
	SLOs        []Verdict
}

// Passed reports whether every SLO gate held.
func (r *Result) Passed() bool {
	for _, v := range r.SLOs {
		if !v.Pass {
			return false
		}
	}
	return true
}

// Metric returns the named metric and whether it exists.
func (r *Result) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Scenario is one registered hostile workload.
type Scenario struct {
	Name        string
	Description string
	Run         func(Config) (*Result, error)
}

// registry holds the named scenarios in registration order.
var registry []Scenario

func register(s Scenario) { registry = append(registry, s) }

// All returns every registered scenario, sorted by name.
func All() []Scenario {
	out := append([]Scenario(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Find returns the named scenario.
func Find(name string) (Scenario, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}

// durationMetric summarizes raw samples with harness.Percentile — the
// exact-order-statistics oracle — rather than bucketed estimates.
func durationMetric(name string, samples []time.Duration) Metric {
	m := Metric{Name: name, Unit: "seconds", Count: uint64(len(samples))}
	if len(samples) == 0 {
		return m
	}
	var sum time.Duration
	max := samples[0]
	for _, s := range samples {
		sum += s
		if s > max {
			max = s
		}
	}
	m.Mean = (sum / time.Duration(len(samples))).Seconds()
	m.P50 = harness.Percentile(samples, 50).Seconds()
	m.P95 = harness.Percentile(samples, 95).Seconds()
	m.P99 = harness.Percentile(samples, 99).Seconds()
	m.P999 = harness.Percentile(samples, 99.9).Seconds()
	m.Max = max.Seconds()
	return m
}

// snapshotMetric summarizes a histogram interval at bucket resolution, for
// distributions recorded inside components (admission stages, TTE).
func snapshotMetric(name string, snap obs.HistogramSnapshot) Metric {
	m := Metric{Name: name, Unit: "seconds", Count: snap.Count()}
	if snap.Count() == 0 {
		return m
	}
	m.Mean = (snap.Sum() / time.Duration(snap.Count())).Seconds()
	m.P50 = snap.Quantile(0.5).Seconds()
	m.P95 = snap.Quantile(0.95).Seconds()
	m.P99 = snap.Quantile(0.99).Seconds()
	m.P999 = snap.Quantile(0.999).Seconds()
	return m
}

// countMetric records a bare event count.
func countMetric(name, unit string, n uint64) Metric {
	return Metric{Name: name, Unit: unit, Count: n}
}

// rateMetric records a throughput.
func rateMetric(name string, events uint64, perSec float64) Metric {
	return Metric{Name: name, Unit: "per_second", Count: events, Rate: perSec}
}

// gate builds one SLO verdict: actual ≤ threshold passes.
func gate(name, metric string, q, threshold, actual float64) Verdict {
	return Verdict{
		Name: name, Metric: metric, Quantile: q,
		Threshold: threshold, Actual: actual,
		Pass: actual <= threshold,
	}
}

// gateMin is gate with the inequality flipped: actual ≥ threshold passes
// (throughput floors, containment counts).
func gateMin(name, metric string, threshold, actual float64) Verdict {
	return Verdict{
		Name: name, Metric: metric,
		Threshold: threshold, Actual: actual,
		Pass: actual >= threshold,
	}
}

// errUnknown reports a scenario lookup failure with the known names.
func errUnknown(name string) error {
	return fmt.Errorf("scenario: unknown %q (have %v)", name, Names())
}

// RunByName runs one scenario, or every scenario for name "all". Results
// come back in execution (sorted-name) order; the first scenario error
// aborts the run.
func RunByName(name string, cfg Config) ([]*Result, error) {
	var run []Scenario
	if name == "all" {
		run = All()
	} else {
		s, ok := Find(name)
		if !ok {
			return nil, errUnknown(name)
		}
		run = []Scenario{s}
	}
	out := make([]*Result, 0, len(run))
	for _, s := range run {
		start := time.Now()
		res, err := s.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		res.Scenario = s.Name
		res.Description = s.Description
		res.Seed = cfg.Seed
		res.Quick = cfg.Quick
		res.DurationSec = time.Since(start).Seconds()
		out = append(out, res)
	}
	return out, nil
}
