// Package accum exercises the analyzers over a poller-driven reader's
// accumulator idiom: a shared read buffer feeds a per-connection frame
// state machine, and neither the steady-state feed nor the emit callback
// may allocate or let the transient read chunk escape the call.
package accum

import (
	"encoding/binary"
	"sync"
)

const headerLen = 8

// acc is the per-connection frame accumulator: partial carries header
// bytes across short reads, frame aliases the current chunk.
type acc struct {
	partial []byte
	frame   []byte
}

// Feed is the steady-state path: aliasing subslices of the chunk and
// reusing the partial buffer's capacity is allocation-free, so the
// annotation must hold without suppressions.
//
//dfi:hotpath
func (a *acc) Feed(chunk []byte, emit func([]byte) error) error {
	for len(chunk) >= headerLen {
		n := int(binary.BigEndian.Uint16(chunk[2:4]))
		if n < headerLen || n > len(chunk) {
			break
		}
		a.frame = chunk[:n]
		if err := emit(a.frame); err != nil {
			return err
		}
		chunk = chunk[n:]
	}
	a.partial = appendBytes(a.partial[:0], chunk)
	return nil
}

// appendBytes hosts the partial-frame carry's amortized growth outside
// the annotated steady state (the real accumulator's idiom: short reads
// are rare, so their growth is not hot).
func appendBytes(dst, src []byte) []byte { return append(dst, src...) }

// FeedCopying is the regression the annotation exists to catch: a
// careless rewrite that materializes every frame as a fresh copy.
//
//dfi:hotpath
func (a *acc) FeedCopying(chunk []byte, emit func([]byte) error) error {
	for len(chunk) >= headerLen {
		n := int(binary.BigEndian.Uint16(chunk[2:4]))
		if n < headerLen || n > len(chunk) {
			break
		}
		frame := make([]byte, n) // want "make allocates"
		copy(frame, chunk)
		if err := emit(frame); err != nil {
			return err
		}
		chunk = chunk[n:]
	}
	a.partial = append([]byte(nil), chunk...) // want "append may grow"
	return nil
}

var readPool = sync.Pool{
	New: func() any {
		b := make([]byte, 64<<10)
		return &b
	},
}

// message outlives any single read burst.
type message struct {
	payload []byte
}

var inbox []message

// ReadBurst is the worker read-loop idiom the analyzer must stay quiet
// on: the pooled chunk is fed, consumed within the call, and recycled.
func ReadBurst(read func([]byte) int, a *acc, emit func([]byte) error) error {
	bp := readPool.Get().(*[]byte)
	defer readPool.Put(bp)
	n := read(*bp)
	return a.Feed((*bp)[:n], emit)
}

// ReadBurstLeaky deliberately escapes the pooled read buffer: the parked
// frame aliases recycled backing memory, the exact corruption class the
// shared read buffers of a poller-driven reader make possible.
func ReadBurstLeaky(read func([]byte) int) {
	bp := readPool.Get().(*[]byte)
	n := read(*bp)
	inbox[0] = message{payload: (*bp)[:n]} // want "stored into inbox"
	readPool.Put(bp)
}

// ReadBurstReturn hands the pooled read buffer to the caller.
func ReadBurstReturn(read func([]byte) int) []byte {
	bp := readPool.Get().(*[]byte)
	defer readPool.Put(bp)
	n := read(*bp)
	return (*bp)[:n] // want "escapes via return"
}
