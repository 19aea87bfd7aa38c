package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultLine is the one line a single run ends its standard output with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported is the metric set a run of this kind prints.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// notExercised is what the result line carries for a per-layer metric the
// workload did not exercise. The driver wants every listed metric on every
// line, so the metric cannot be left out there as it is everywhere else; no
// measured value is negative, and a reader that divides one run's value by
// another's gets "unchanged" from two of these where two zeros give nothing.
const notExercised = -1

func (r *result) line() resultLine {
	l := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range reported(r.Trace) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			v = notExercised
		}
		l.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return l
}

// print writes the run for a reader: every metric by name and unit, the
// sample counts behind the timings and the failure account.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%t: attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed)
	for _, m := range reported(r.Trace) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, v, m.Unit)
		} else {
			fmt.Fprintf(w, "  %-32s %14s\n", m.Name, "not exercised")
		}
	}
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  samples:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Samples[k])
	}
	fmt.Fprintln(w)
	keys = keys[:0]
	for k := range r.Diagnostics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "  also measured:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%.4g", k, r.Diagnostics[k])
	}
	fmt.Fprintln(w)
	if base := r.Metrics["ledger.op_unloaded_p50_us"]; r.Trace && base > 0 {
		fmt.Fprintf(w, "  ledger: op rows explain %.2f of the unloaded median %.1f us; revoke rows %.2f of %.2f ms\n",
			r.Metrics["ledger.op_attributed_ratio"], base,
			r.Metrics["ledger.revoke_attributed_ratio"], r.Metrics["diag.revoke_tte_p50_ms"])
	}
}

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the exclusive method), which
// is how the benchmark's acceptance spread is defined.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is one metric over the runs of a repeat.
type summary struct {
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// Spread is the interquartile range as a share of the median.
	Spread float64 `json:"spread"`
	Runs   int     `json:"runs"`
}

// repeatFile is what -repeat writes and -compare reads.
type repeatFile struct {
	Host      fingerprint          `json:"host"`
	Runs      []*result            `json:"runs"`
	Summaries map[string][]summary `json:"summaries"` // by workload
}

func summarize(runs []*result) map[string][]summary {
	byWorkload := map[string][]*result{}
	for _, r := range runs {
		if r.Valid {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	out := map[string][]summary{}
	for name, rs := range byWorkload {
		for _, m := range reported(rs[0].Trace) {
			var vals []float64
			for _, r := range rs {
				if v, ok := r.Metrics[m.Name]; ok {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue // not exercised by this workload
			}
			q1, q2, q3 := quartiles(vals)
			sort.Float64s(vals)
			s := summary{Metric: m.Name, Unit: m.Unit, Min: vals[0], Median: q2, Max: vals[len(vals)-1], Runs: len(vals)}
			if q2 != 0 {
				s.Spread = (q3 - q1) / q2
			}
			out[name] = append(out[name], s)
		}
	}
	return out
}

func printSummaries(w io.Writer, sums map[string][]summary) {
	for _, wl := range workloads {
		if len(sums[wl.Name]) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s over %d runs\n  %-32s %12s %12s %12s %8s\n", wl.Name, sums[wl.Name][0].Runs, "metric", "min", "median", "max", "spread")
		for _, s := range sums[wl.Name] {
			fmt.Fprintf(w, "  %-32s %12.4f %12.4f %12.4f %7.1f%% %s\n", s.Metric, s.Min, s.Median, s.Max, 100*s.Spread, s.Unit)
		}
	}
}

// compare prints b against a, metric by metric. It refuses two files whose
// fingerprints name different hosts, or whose runs differ in length: such a
// difference is not a result.
func compare(w io.Writer, pathA, pathB string) error {
	var a, b repeatFile
	for _, f := range []struct {
		path string
		dst  *repeatFile
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, f.dst); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	if !a.Host.sameHost(b.Host) {
		return fmt.Errorf("refusing to compare: %s was measured on %+v, %s on %+v", pathA, a.Host, pathB, b.Host)
	}
	// The length of a run sets the length of every round, and so what a
	// round's median is a median of.
	if len(a.Runs) > 0 && len(b.Runs) > 0 && a.Runs[0].Seconds != b.Runs[0].Seconds {
		return fmt.Errorf("refusing to compare: %s measured %g s a run, %s %g s", pathA, a.Runs[0].Seconds, pathB, b.Runs[0].Seconds)
	}
	fmt.Fprintf(w, "a = %s (rev %s), b = %s (rev %s)\n", pathA, a.Host.GitRev, pathB, b.Host.GitRev)
	for _, wl := range workloads {
		bs := map[string]summary{}
		for _, s := range b.Summaries[wl.Name] {
			bs[s.Metric] = s
		}
		for i, sa := range a.Summaries[wl.Name] {
			sb, ok := bs[sa.Metric]
			if !ok || sa.Median == 0 {
				continue
			}
			if i == 0 {
				fmt.Fprintf(w, "%s\n  %-32s %12s %12s %8s %14s\n", wl.Name, "metric", "a median", "b median", "b/a", "a spread")
			}
			fmt.Fprintf(w, "  %-32s %12.4f %12.4f %8.3f %13.1f%% %s\n", sa.Metric, sa.Median, sb.Median, sb.Median/sa.Median, 100*sa.Spread, sa.Unit)
		}
	}
	return nil
}
