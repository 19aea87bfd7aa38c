package rig

import (
	"runtime"
	"syscall"
	"time"
)

// Pacer wakes an open-loop sender at its due times. The Go runtime rounds
// a sleeping process's sub-millisecond timers up to a millisecond, which is
// several send intervals here, so the pacer sleeps in the kernel instead:
// nanosleep on a thread of its own, with the thread's timer slack set to
// the minimum, to just short of the due time, and spins the remainder. The
// spin is bounded by spinMargin per wake-up, a small share of a core: the
// system under test needs the rest of the host's two.
type Pacer struct{}

// spinMargin is about the wake-up latency of a thread sleeping in the
// kernel on the benchmark host while the keeper (awake.go) holds the CPUs
// out of their idle state: the sleep ends about when the send is due, and
// the spin that follows is a few microseconds. A wider margin has the two
// senders spinning for a fifth of a core each, which dfid's threads then
// queue behind.
const spinMargin = 20 * time.Microsecond

const prSetTimerSlack = 29

// NewPacer pins the calling goroutine to its thread until Close.
func NewPacer() *Pacer {
	runtime.LockOSThread()
	// Best effort: without it wake-ups are up to 50µs later, which the
	// lateness metric then reports.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return &Pacer{}
}

// Close releases the thread.
func (*Pacer) Close() { runtime.UnlockOSThread() }

// SleepUntil blocks until the monotonic instant t (as time.Since(base)
// would report it at that moment).
func (*Pacer) SleepUntil(base time.Time, t time.Duration) {
	for {
		d := t - time.Since(base)
		if d <= 0 {
			return
		}
		if d <= spinMargin {
			continue
		}
		ts := syscall.NsecToTimespec(int64(d - spinMargin))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}
