package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/simclock"
)

// TraceID identifies one causal chain of spans: either a sensor event's
// propagation (bus publish → entity binding update → policy mutation →
// flush compilation → proxy flow-mod writes) or one admission (packet-in →
// enrichment → policy query → install).
type TraceID uint64

// SpanContext is the propagation handle carried across component
// boundaries (on bus events, through policy mutations, into flush
// callbacks). The zero value means "no trace": components receiving it
// either start a fresh root or stay silent, so untraced paths need no
// special casing.
type SpanContext struct {
	// Trace is the causal chain both ends of an edge share.
	Trace TraceID
	// Span is the id of the emitting side's span; children record it as
	// their Parent.
	Span uint64
}

// Valid reports whether c carries a live trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// Span components. A span's Component names the DFI layer that did the
// work; Stage names the work itself.
const (
	CompBus    = "bus"
	CompEntity = "entity"
	CompPolicy = "policy"
	CompPCP    = "pcp"
	CompProxy  = "proxy"
)

// Span is one timed unit of work attributed to a trace. The struct is
// fixed-size; committing a span copies it into the store's ring without
// allocating, which is what lets every admission emit its spans without
// breaking the hot path's zero-alloc contract.
type Span struct {
	// Seq is the span's position in the total committed sequence.
	Seq uint64
	// Trace, ID and Parent link the span into its causal chain. Parent is
	// zero for roots.
	Trace  TraceID
	ID     uint64
	Parent uint64
	// Component and Stage say who did what: ("bus","publish"),
	// ("entity","binding_update"), ("policy","revoke"),
	// ("pcp","flush_compile"),
	// ("proxy","flow_mod_write"), ("pcp","admission") and its child
	// stages, ...
	Component string
	Stage     string
	// Start and Duration time the work on the store's clock.
	Start    time.Time
	Duration time.Duration
	// Optional attributes. DPID/RuleID are zero when not applicable;
	// Detail is a short human-readable annotation (topic, binding,
	// outcome). InPort and Flow locate an admission root's packet: its
	// ingress port and the identifiers parsed from it, kept raw so the
	// admission path formats nothing.
	DPID   uint64
	RuleID uint64
	InPort uint32
	Flow   netpkt.FlowKey
	Detail string
	// Err describes a failure, empty on success.
	Err string
}

// SpanStore is a bounded ring of committed spans plus the id allocators
// that mint trace and span ids. All methods tolerate a nil receiver (no
// tracing configured): id requests return the zero SpanContext and commits
// are dropped, so instrumented code needs no enabled-checks beyond what it
// wants for efficiency.
//
// The write side takes a mutex for the ring copy; the id allocators are
// atomics so NewRoot/Child never contend.
type SpanStore struct {
	clock     simclock.Clock
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64

	mu   sync.Mutex
	buf  []Span
	next uint64 // total committed
}

// NewSpanStore returns a store holding the last capacity spans, timed on
// clock. A non-positive capacity defaults to 2048; a nil clock defaults to
// the wall clock.
func NewSpanStore(capacity int, clock simclock.Clock) *SpanStore {
	if capacity <= 0 {
		capacity = 2048
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	return &SpanStore{clock: clock, buf: make([]Span, 0, capacity)}
}

// Enabled reports whether spans are being collected. Nil-safe.
func (s *SpanStore) Enabled() bool { return s != nil }

// Now returns the store's clock reading, so span emitters time work on the
// same clock the store was built with (simulated in experiments, wall
// otherwise). Nil-safe: a nil store returns the zero time.
func (s *SpanStore) Now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.clock.Now()
}

// NewRoot mints a fresh trace with its first span id. Nil-safe: a nil
// store returns the zero (invalid) context.
func (s *SpanStore) NewRoot() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: TraceID(s.nextTrace.Add(1)), Span: s.nextSpan.Add(1)}
}

// Child mints a span id under parent's trace; if parent is invalid it
// starts a fresh root instead, so propagation code can call Child
// unconditionally. Nil-safe.
func (s *SpanStore) Child(parent SpanContext) SpanContext {
	if s == nil {
		return SpanContext{}
	}
	if !parent.Valid() {
		return s.NewRoot()
	}
	return SpanContext{Trace: parent.Trace, Span: s.nextSpan.Add(1)}
}

// Commit appends one span, overwriting the oldest once the ring is full
// and stamping sp.Seq. Nil-safe no-op.
func (s *SpanStore) Commit(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	sp.Seq = s.next
	s.next++
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, sp)
	} else {
		s.buf[sp.Seq%uint64(cap(s.buf))] = sp
	}
	s.mu.Unlock()
}

// ByTrace returns every retained span belonging to trace id, oldest first.
// Nil-safe: a nil store returns nil.
func (s *SpanStore) ByTrace(id TraceID) []Span {
	if s == nil || id == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Span
	n := uint64(len(s.buf))
	if n == 0 {
		return nil
	}
	for i := uint64(0); i < n; i++ {
		// Walk oldest→newest so the result reads in causal commit order.
		sp := s.buf[(s.next+i)%n]
		if sp.Trace == id {
			out = append(out, sp)
		}
	}
	return out
}

// Last returns up to n spans, most recent first. Nil-safe.
func (s *SpanStore) Last(n int) []Span {
	if s == nil || n <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.buf) {
		n = len(s.buf)
	}
	out := make([]Span, n)
	for i := 0; i < n; i++ {
		out[i] = s.buf[(s.next-1-uint64(i))%uint64(cap(s.buf))]
	}
	return out
}

// Committed returns the total number of spans committed (including ones
// the ring has since overwritten). Nil-safe.
func (s *SpanStore) Committed() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// WithSpan runs fn inside a span: it mints a child context under parent
// (or a fresh root when parent is invalid), times fn on the store's clock
// and commits a span with the given attribution. When the store is nil it
// just runs fn. It returns the context the span ran under, so callers can
// propagate it further. Not for hot paths — the closure and the commit are
// control-plane costs.
func WithSpan(s *SpanStore, parent SpanContext, component, stage, detail string, fn func(SpanContext)) SpanContext {
	if !s.Enabled() {
		fn(SpanContext{})
		return SpanContext{}
	}
	sc := s.Child(parent)
	start := s.Now()
	fn(sc)
	s.Commit(Span{
		Trace:     sc.Trace,
		ID:        sc.Span,
		Parent:    parent.Span,
		Component: component,
		Stage:     stage,
		Start:     start,
		Duration:  s.Now().Sub(start),
		Detail:    detail,
	})
	return sc
}
