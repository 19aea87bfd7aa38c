package store

import (
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/simclock"
)

func TestZeroLatency(t *testing.T) {
	if d := Zero().Sample(); d != 0 {
		t.Fatalf("Zero().Sample() = %v", d)
	}
}

func TestFixedLatency(t *testing.T) {
	m := Fixed(5 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if d := m.Sample(); d != 5*time.Millisecond {
			t.Fatalf("Fixed.Sample() = %v", d)
		}
	}
}

func TestGaussianStats(t *testing.T) {
	mean := 2410 * time.Microsecond
	stddev := 970 * time.Microsecond
	g := NewGaussian(mean, stddev, 1)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		d := g.Sample()
		if d < 0 {
			t.Fatal("negative sample")
		}
		v := float64(d)
		sum += v
		sumSq += v * v
	}
	gotMean := sum / n
	// Truncation at zero biases the mean slightly upward; allow 5%.
	if diff := gotMean - float64(mean); diff < -0.05*float64(mean) || diff > 0.05*float64(mean) {
		t.Fatalf("mean = %v, want ≈ %v", time.Duration(gotMean), mean)
	}
	gotVar := sumSq/n - gotMean*gotMean
	wantVar := float64(stddev) * float64(stddev)
	if gotVar < 0.8*wantVar || gotVar > 1.2*wantVar {
		t.Fatalf("variance = %v, want ≈ %v", gotVar, wantVar)
	}
}

func TestGaussianDeterministicPerSeed(t *testing.T) {
	a := NewGaussian(time.Millisecond, time.Millisecond/4, 7)
	b := NewGaussian(time.Millisecond, time.Millisecond/4, 7)
	for i := 0; i < 100; i++ {
		if a.Sample() != b.Sample() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestChargeAdvancesSimulatedClock(t *testing.T) {
	epoch := time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(epoch)
	var charged time.Duration
	clk.Go(func() {
		charged = Charge(clk, Fixed(3*time.Millisecond))
	})
	end := clk.Run()
	if charged != 3*time.Millisecond {
		t.Fatalf("charged = %v", charged)
	}
	if want := epoch.Add(3 * time.Millisecond); !end.Equal(want) {
		t.Fatalf("clock at %v, want %v", end, want)
	}
}

func TestChargeNilIsFree(t *testing.T) {
	if d := Charge(nil, Fixed(time.Second)); d != 0 {
		t.Fatalf("Charge(nil, ...) = %v", d)
	}
	if d := Charge(simclock.Real{}, nil); d != 0 {
		t.Fatalf("Charge(..., nil) = %v", d)
	}
}

// TestChargeRealClockKeepsTheModelsTotal: on the wall clock a model's
// charges sleep, in total, at least the costs they sampled and at most one
// late wake-up more, even when each cost is below the timer granularity.
// Sleep overshoot is repaid out of the same model's next sleeps.
func TestChargeRealClockKeepsTheModelsTotal(t *testing.T) {
	const (
		n = 20
		d = 300 * time.Microsecond
	)
	Charge(simclock.Real{}, Fixed(d)) // another model: its account is its own
	m := Fixed(d)
	start := time.Now()
	for i := 0; i < n; i++ {
		if got := Charge(simclock.Real{}, m); got != d {
			t.Fatalf("Charge = %v, want %v", got, d)
		}
	}
	elapsed := time.Since(start)
	if elapsed < n*d || elapsed > n*d+100*time.Millisecond {
		t.Fatalf("%d charges of %v took %v, want about %v", n, d, elapsed, n*d)
	}
}
