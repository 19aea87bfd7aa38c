// Package netpoll is a minimal readiness poller for load generators that
// drive many sockets from one goroutine (the benchmark rig's switch and
// controller peers). On linux it wraps epoll through the stdlib syscall
// package — no cgo, no golang.org/x/sys — so a few goroutines can
// multiplex hundreds of connections without a goroutine (and its stack)
// per connection. On every other platform New reports ErrUnsupported and
// callers use their portable fallback.
//
// The poller is deliberately tiny: level-triggered readiness, one uint32
// token per fd, and a Wake channel an outside goroutine can use to break a
// blocked Wait (registration, teardown, write-interest changes). Everything
// higher-level — partial-frame accumulation, backpressure, connection
// state — belongs to the caller.
package netpoll

import (
	"errors"
	"io"
	"syscall"
)

// ErrUnsupported is returned by New on platforms without an epoll-style
// readiness facility; callers should use their portable fallback.
var ErrUnsupported = errors.New("netpoll: not supported on this platform")

// Event is one readiness notification.
type Event struct {
	// Token is the caller's identifier for the fd, chosen at Add.
	Token uint32
	// Readable reports read readiness (data or EOF pending).
	Readable bool
	// Writable reports write readiness (a previously full socket drained).
	Writable bool
	// Hangup reports peer hangup or an fd error; the connection should be
	// torn down after draining any readable bytes.
	Hangup bool
}

// wakeToken marks the poller's internal wake pipe; it is never surfaced.
const wakeToken = ^uint32(0)

// FD extracts the underlying file descriptor of a stream, reporting whether
// it is fd-backed (a *net.TCPConn, *net.UnixConn, *os.File...). The fd is
// only valid while the owner keeps the stream open; callers own that
// lifecycle. Streams wrapped beyond recognition (TLS records, in-memory
// pipes) report false and take the fallback path.
func FD(stream io.ReadWriter) (int, bool) {
	sc, ok := stream.(syscall.Conn)
	if !ok {
		return -1, false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return -1, false
	}
	fd := -1
	if err := rc.Control(func(f uintptr) { fd = int(f) }); err != nil {
		return -1, false
	}
	return fd, fd >= 0
}
