package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4):
// the expected values below are that function's output.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1, 4}, 2, 4, 8.5},
		{[]float64{5, 9}, 4, 7, 10},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []int64{50, 10, 40, 20, 30}
	if got := quantile(v, 0.5); got != 30 {
		t.Errorf("median %v, want 30", got)
	}
	if got := quantile(v, 0.99); got != 50 {
		t.Errorf("p99 %v, want 50", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty set: %v, want 0", got)
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	dir := t.TempDir()
	run := func(v float64) *result {
		return &result{Workload: "admit-hot", Valid: true, Metrics: map[string]float64{"op_p50_us": v, "setup_s": 1}}
	}
	here := repeatFile{Host: fingerprint{CPUModel: "cpu-a", NumCPU: 2, GitRev: "aaa"}}
	here.Summaries = summarize([]*result{run(100), run(110), run(105)})
	later := here
	later.Host.GitRev = "bbb"
	later.Summaries = summarize([]*result{run(90), run(92), run(91)})
	elsewhere := later
	elsewhere.Host.NumCPU = 64
	here.Runs, later.Runs, elsewhere.Runs = []*result{{Seconds: 20}}, []*result{{Seconds: 20}}, []*result{{Seconds: 20}}
	shorter := later
	shorter.Runs = []*result{{Seconds: 5}}
	paths := map[string]string{}
	for name, f := range map[string]repeatFile{"here": here, "later": later, "elsewhere": elsewhere, "shorter": shorter} {
		paths[name] = filepath.Join(dir, name+".json")
		if err := writeJSON(paths[name], f); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compare(&out, paths["here"], paths["later"]); err != nil {
		t.Fatalf("same host, another revision: %v", err)
	}
	if !strings.Contains(out.String(), "op_p50_us") || !strings.Contains(out.String(), "0.867") {
		t.Errorf("comparison lacks the op_p50_us row with ratio 0.867:\n%s", out.String())
	}
	if err := compare(&out, paths["here"], paths["elsewhere"]); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("another host: error %v, want a refusal", err)
	}
	if err := compare(&out, paths["here"], paths["shorter"]); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("runs of another length: error %v, want a refusal", err)
	}
}

// TestUnexercisedMetricIsLeftOut: a per-layer metric a workload did not
// exercise is absent from the run and from a repeat's summaries; only the
// driver's line, which must carry every name, marks it.
func TestUnexercisedMetricIsLeftOut(t *testing.T) {
	run := func(v float64) *result {
		return &result{Workload: "relay-passthrough", Trace: true, Valid: true, Metrics: map[string]float64{"proxy.forward_ns": v, "pcp.queue_drops": 0}}
	}
	for _, s := range summarize([]*result{run(100), run(110)})["relay-passthrough"] {
		if s.Metric != "proxy.forward_ns" && s.Metric != "pcp.queue_drops" {
			t.Errorf("summary has %s, which no run measured", s.Metric)
		}
	}
	line := run(100).line()
	if len(line.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics on the line, want all %d", len(line.Metrics), len(perLayer))
	}
	if got := line.Metrics["pcp.cache_hit_ratio"].Value; got != notExercised {
		t.Errorf("unexercised metric reads %v on the line, want %v", got, notExercised)
	}
	if got := line.Metrics["pcp.queue_drops"].Value; got != 0 {
		t.Errorf("a measured 0 reads %v on the line", got)
	}
}
