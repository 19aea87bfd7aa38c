package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/harness"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dfi_test_total", "a counter")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Idempotent registration returns the same instrument.
	if again := r.Counter("dfi_test_total", "a counter"); again != c {
		t.Fatal("re-registration returned a new counter")
	}

	g := r.Gauge("dfi_test_depth", "a gauge")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.N() != 0 || h.Mean() != 0 || h.StdDev() != 0 {
		t.Fatal("nil instruments returned non-zero values")
	}
	var cv *CounterVec
	var hv *HistogramVec
	cv.With("x").Inc()
	hv.With("x").Observe(time.Second)
}

func TestHistogramMatchesWelford(t *testing.T) {
	h := newHistogram(nil)
	w := &harness.DurationStats{}
	samples := []time.Duration{
		17 * time.Microsecond, 2 * time.Millisecond, 450 * time.Nanosecond,
		5 * time.Millisecond, 3100 * time.Microsecond, 90 * time.Microsecond,
		1200 * time.Nanosecond, 7 * time.Millisecond,
	}
	for _, s := range samples {
		h.Observe(s)
		w.Add(s)
	}
	if h.N() != w.N() {
		t.Fatalf("count: histogram %d, welford %d", h.N(), w.N())
	}
	if dm := math.Abs(float64(h.Mean() - w.Mean())); dm > 1 {
		t.Fatalf("mean: histogram %v, welford %v", h.Mean(), w.Mean())
	}
	// Sum-of-squares vs Welford agree to well under a nanosecond at these
	// magnitudes.
	if ds := math.Abs(float64(h.StdDev() - w.StdDev())); ds > 2 {
		t.Fatalf("stddev: histogram %v, welford %v", h.StdDev(), w.StdDev())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dfi_test_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond) // first bucket
	h.Observe(5 * time.Millisecond)   // second bucket
	h.Observe(50 * time.Millisecond)  // +Inf
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dfi_test_seconds_bucket{le="0.001"} 1`,
		`dfi_test_seconds_bucket{le="0.01"} 2`,
		`dfi_test_seconds_bucket{le="+Inf"} 3`,
		`dfi_test_seconds_count 3`,
		"# TYPE dfi_test_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("dfi_test_decisions_total", "decisions", "outcome")
	v.With("allow").Add(3)
	v.With("deny").Inc()
	if v.With("allow") != v.With("allow") {
		t.Fatal("With not idempotent")
	}
	hv := r.HistogramVec("dfi_test_stage_seconds", "stages", "stage", []float64{0.001})
	hv.With("binding_query").Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dfi_test_decisions_total{outcome="allow"} 3`,
		`dfi_test_decisions_total{outcome="deny"} 1`,
		`dfi_test_stage_seconds_bucket{stage="binding_query",le="+Inf"} 1`,
		`dfi_test_stage_seconds_count{stage="binding_query"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	n := uint64(9)
	r.CounterFunc("dfi_test_published_total", "published", func() uint64 { return n })
	r.GaugeFunc("dfi_test_queue_depth", "depth", func() float64 { return 4 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "dfi_test_published_total 9") ||
		!strings.Contains(out, "dfi_test_queue_depth 4") {
		t.Fatalf("exposition:\n%s", out)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dfi_test_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind clash")
		}
	}()
	r.Gauge("dfi_test_x", "")
}

func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dfi_test_hammer_total", "")
	h := r.Histogram("dfi_test_hammer_seconds", "", nil)
	v := r.CounterVec("dfi_test_hammer_vec_total", "", "k")
	const perWorker = 5000
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
				h.Observe(time.Microsecond)
				v.With("a").Inc()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 4*perWorker || h.N() != 4*perWorker {
		t.Fatalf("counter = %d, histogram = %d, want %d", c.Value(), h.N(), 4*perWorker)
	}
}
