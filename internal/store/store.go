// Package store models the query latency of the paper's MySQL databases:
// an injectable cost per Policy Manager and Entity Resolution Manager
// query, so that the RPC+database costs the paper measured (≈2.4–2.5 ms
// per query, Table II) can be reproduced for the evaluation while
// remaining zero for ordinary library use. The managers keep their own
// in-memory indexes; nothing here stores rows.
package store

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dfi-sdn/dfi/internal/simclock"
)

// LatencyModel samples the simulated cost of one query round trip.
type LatencyModel interface {
	// Sample returns the cost of the next query; never negative.
	Sample() time.Duration
}

type zeroLatency struct{}

func (zeroLatency) Sample() time.Duration { return 0 }

// Zero returns a LatencyModel with no cost (the default for library use).
func Zero() LatencyModel { return zeroLatency{} }

// Gaussian is a LatencyModel with normally distributed samples truncated at
// zero, matching the mean ± σ figures the paper reports.
type Gaussian struct {
	overshoot
	mu     sync.Mutex
	rng    *rand.Rand
	mean   time.Duration
	stddev time.Duration
}

var _ LatencyModel = (*Gaussian)(nil)

// NewGaussian returns a Gaussian latency model with the given parameters,
// deterministic for a given seed.
func NewGaussian(mean, stddev time.Duration, seed int64) *Gaussian {
	return &Gaussian{rng: rand.New(rand.NewSource(seed)), mean: mean, stddev: stddev}
}

// Sample implements LatencyModel.
func (g *Gaussian) Sample() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	d := time.Duration(g.rng.NormFloat64()*float64(g.stddev)) + g.mean
	if d < 0 {
		d = 0
	}
	return d
}

// Fixed returns a LatencyModel that always samples d.
func Fixed(d time.Duration) LatencyModel { return &fixedLatency{d: d} }

type fixedLatency struct {
	overshoot
	d time.Duration
}

func (f *fixedLatency) Sample() time.Duration { return f.d }

// overshoot is a model's running account of its real-clock sleep error:
// the time Charge slept for it beyond the costs it sampled (negative when
// short). Every model this package builds embeds one.
type overshoot struct{ owed atomic.Int64 }

func (o *overshoot) account() *atomic.Int64 { return &o.owed }

// Charge sleeps on clock for one sample of m and returns the charged cost.
// A nil model or clock charges nothing.
//
// On the real clock, time.Sleep overshoots by up to the kernel timer
// granularity (near a millisecond on coarse-tick kernels) plus however long
// a busy host takes to reschedule the sleeper. Charge keeps each model's
// total time slept equal to the total it sampled: what one sleep overshoots
// is owed, and the model's next sleeps are shortened until it is repaid. A
// calibrated stage therefore costs its model's mean on average, whatever
// the tick or the load, instead of that mean plus (or minus) a correction
// measured once under whatever load the process started with. Models from
// outside this package are slept uncorrected.
func Charge(clock simclock.Clock, m LatencyModel) time.Duration {
	if m == nil || clock == nil {
		return 0
	}
	d := m.Sample()
	if d <= 0 {
		return 0
	}
	if _, isReal := clock.(simclock.Real); !isReal {
		clock.Sleep(d)
		return d
	}
	a, ok := m.(interface{ account() *atomic.Int64 })
	if !ok {
		time.Sleep(d)
		return d
	}
	owed := a.account()
	var slept time.Duration
	if want := d - time.Duration(owed.Load()); want > 0 {
		start := time.Now()
		time.Sleep(want)
		slept = time.Since(start)
	}
	owed.Add(int64(slept - d))
	return d
}
