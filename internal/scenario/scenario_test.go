package scenario

import (
	"testing"
	"time"
)

// TestRegistryNames: all five campus scenarios are registered and sorted.
func TestRegistryNames(t *testing.T) {
	want := []string{"dhcp-churn", "flap-storm", "packetin-flood",
		"revocation-storm", "worm-quarantine"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := RunByName("no-such", Config{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestScenariosPassQuick: every registered scenario holds all its SLOs at
// quick scale — the gate that replaced the committed timing baseline.
func TestScenariosPassQuick(t *testing.T) {
	for _, name := range Names() {
		results, err := RunByName(name, Config{Seed: 3, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if res := results[0]; !res.Passed() {
			t.Errorf("%s violated its SLOs: %+v", name, res.SLOs)
		}
	}
}

// TestFlapStormQuick runs the flap storm at CI scale and checks the result
// shape: mutation and admission distributions populated, SLO verdicts
// attached, entity population at quick-campus scale.
func TestFlapStormQuick(t *testing.T) {
	results, err := RunByName("flap-storm", Config{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	res := results[0]
	if res.Scenario != "flap-storm" || !res.Quick || res.Seed != 7 {
		t.Fatalf("stamping wrong: %+v", res)
	}
	if res.Entities != quickEdges*quickHostsPerEdge*bindingsPerHost {
		t.Fatalf("entities = %d", res.Entities)
	}
	tte, ok := res.Metric("mutation_tte")
	if !ok || tte.Count == 0 || tte.P99 <= 0 {
		t.Fatalf("mutation_tte = %+v", tte)
	}
	adm, ok := res.Metric("admission_latency")
	if !ok || adm.Count == 0 || adm.P50 <= 0 || adm.P99 < adm.P50 {
		t.Fatalf("admission_latency = %+v", adm)
	}
	if len(res.SLOs) == 0 {
		t.Fatal("no SLO verdicts")
	}
	for _, v := range res.SLOs {
		if !v.Pass {
			t.Errorf("SLO %s violated: actual=%g threshold=%g", v.Name, v.Actual, v.Threshold)
		}
	}
}

// TestRevocationStormQuick: per-revocation TTE quantiles are measured and
// the committed revocation gate holds at quick scale.
func TestRevocationStormQuick(t *testing.T) {
	results, err := RunByName("revocation-storm", Config{Seed: 11, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	rev, ok := res.Metric("revocation_tte")
	if !ok || rev.Count != 150 {
		t.Fatalf("revocation_tte = %+v", rev)
	}
	rate, ok := res.Metric("revocations")
	if !ok || rate.Rate <= 0 {
		t.Fatalf("revocations = %+v", rate)
	}
	if !res.Passed() {
		t.Fatalf("revocation storm violated SLOs: %+v", res.SLOs)
	}
}

// TestWormQuarantineDeterministic: the worm race runs on the simulated
// clock, so two runs with one seed must produce identical infection counts,
// and the quarantine must contain the outbreak short of full infection.
func TestWormQuarantineDeterministic(t *testing.T) {
	run := func() *Result {
		t.Helper()
		results, err := RunByName("worm-quarantine", Config{Seed: 3, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	a, b := run(), run()
	ia, _ := a.Metric("infections")
	ib, _ := b.Metric("infections")
	if ia.Count != ib.Count {
		t.Fatalf("nondeterministic infections: %d vs %d", ia.Count, ib.Count)
	}
	pop, _ := a.Metric("population")
	if ia.Count == 0 || ia.Count >= pop.Count {
		t.Fatalf("infections = %d of %d, want partial spread", ia.Count, pop.Count)
	}
	found := false
	for _, v := range a.SLOs {
		if v.Name == "worm-containment" {
			found = true
			if !v.Pass {
				t.Fatalf("containment gate failed: %+v", v)
			}
		}
	}
	if !found {
		t.Fatal("no worm-containment verdict")
	}
}

// TestDurationMetricQuantiles: the metric summarizer orders its quantiles.
func TestDurationMetricQuantiles(t *testing.T) {
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Microsecond
	}
	m := durationMetric("x", samples)
	if m.Count != 1000 || !(m.P50 < m.P95 && m.P95 < m.P99 && m.P99 <= m.P999 && m.P999 <= m.Max) {
		t.Fatalf("quantiles out of order: %+v", m)
	}
	empty := durationMetric("y", nil)
	if empty.Count != 0 || empty.P99 != 0 {
		t.Fatalf("empty metric = %+v", empty)
	}
}
