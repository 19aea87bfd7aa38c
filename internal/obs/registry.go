// Package obs is DFI's unified observability layer: a dependency-free
// metrics registry (atomic counters, gauges, lock-free fixed-bucket latency
// histograms and labeled families of each), a bounded ring of causal spans
// (span.go) and the audit log (audit.go). Every control-plane component
// registers its instruments here, so the experiment harness, the
// /v1/metrics Prometheus endpoint and an operator's curl all read the same
// numbers.
//
// Instruments are cheap enough for the admission hot path: a counter add is
// one atomic add, a histogram observation is a handful of atomic adds with
// no locks, and every method tolerates a nil receiver (a component built
// without a registry skips instrumentation without branching at call sites).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind is a metric's Prometheus type.
type Kind uint8

// Metric kinds, in Prometheus exposition vocabulary.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// metric is one registered family: it renders its current value(s) in
// Prometheus text exposition format.
type metric interface {
	kind() Kind
	expose(w io.Writer, name string) error
}

type entry struct {
	name string
	help string
	m    metric
}

// Registry holds named metric families. Registration methods are idempotent
// by name: re-registering a name returns the existing instrument, so two
// components may share a family without coordinating. The zero value is not
// usable; construct with NewRegistry.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*entry
	ordered []*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register returns the existing metric under name when present (panicking
// on a kind clash — a programming error) or stores the one built by mk.
func (r *Registry) register(name, help string, k Kind, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.m.kind() != k {
			panic(fmt.Sprintf("obs: %q re-registered as %s, was %s", name, k, e.m.kind()))
		}
		return e.m
	}
	// mk is the registry's own instrument factory, supplied by the typed
	// registration methods below: it never re-enters the registry or blocks.
	e := &entry{name: name, help: help, m: mk()} //dfi:ignore lockheld
	r.byName[name] = e
	r.ordered = append(r.ordered, e)
	return e.m
}

// Counter registers (or returns) a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, func() metric { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time, for components that already maintain their own monotonic count.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, KindCounter, func() metric { return counterFunc(fn) })
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time
// (e.g. a queue length or a map size).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, func() metric { return gaugeFunc(fn) })
}

// Histogram registers (or returns) a fixed-bucket latency histogram.
// A nil bounds slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, KindHistogram, func() metric { return newHistogram(bounds) }).(*Histogram)
}

// CounterVec registers (or returns) a family of counters keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.register(name, help, KindCounter, func() metric {
		return &CounterVec{label: label, children: make(map[string]*Counter)}
	}).(*CounterVec)
}

// HistogramVec registers (or returns) a family of histograms keyed by one
// label. A nil bounds slice selects DefBuckets.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return r.register(name, help, KindHistogram, func() metric {
		return &HistogramVec{label: label, bounds: bounds, children: make(map[string]*Histogram)}
	}).(*HistogramVec)
}

// find returns the metric registered under name, nil when absent.
func (r *Registry) find(name string) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		return e.m
	}
	return nil
}

// FindCounter returns the counter registered under name, or nil when the
// name is unregistered or belongs to another instrument type. Lookups let
// a consumer (the SLO engine, a scenario harness) read a component's
// instrument without owning a registration site.
func (r *Registry) FindCounter(name string) *Counter {
	c, _ := r.find(name).(*Counter)
	return c
}

// FindHistogram returns the histogram registered under name, or nil (see
// FindCounter).
func (r *Registry) FindHistogram(name string) *Histogram {
	h, _ := r.find(name).(*Histogram)
	return h
}

// FindCounterVec returns the counter family registered under name, or nil
// (see FindCounter).
func (r *Registry) FindCounterVec(name string) *CounterVec {
	v, _ := r.find(name).(*CounterVec)
	return v
}

// FindHistogramVec returns the histogram family registered under name, or
// nil (see FindCounter).
func (r *Registry) FindHistogramVec(name string) *HistogramVec {
	v, _ := r.find(name).(*HistogramVec)
	return v
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := make([]*entry, len(r.ordered))
	copy(families, r.ordered)
	r.mu.Unlock()
	for _, e := range families {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, escapeHelp(e.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.m.kind()); err != nil {
			return err
		}
		if err := e.m.expose(w, e.name); err != nil {
			return err
		}
	}
	return nil
}

// Names returns the registered family names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.ordered))
	for i, e := range r.ordered {
		out[i] = e.name
	}
	return out
}

// CounterVec is a labeled family of counters. Children are created on first
// use of a label value and live for the registry's lifetime; callers should
// resolve With once at setup and hold the child, keeping the hot path to a
// single atomic add.
type CounterVec struct {
	label    string
	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the counter for one label value, creating it if needed.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

func (v *CounterVec) kind() Kind { return KindCounter }

func (v *CounterVec) expose(w io.Writer, name string) error {
	for _, value := range v.labelValues() {
		v.mu.Lock()
		c := v.children[value]
		v.mu.Unlock()
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, value, c.Value()); err != nil {
			return err
		}
	}
	return nil
}

func (v *CounterVec) labelValues() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.children))
	for value := range v.children {
		out = append(out, value)
	}
	sort.Strings(out)
	return out
}

// HistogramVec is a labeled family of histograms.
type HistogramVec struct {
	label    string
	bounds   []float64
	mu       sync.Mutex
	children map[string]*Histogram
}

// With returns the histogram for one label value, creating it if needed.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = newHistogram(v.bounds)
		v.children[value] = h
	}
	return h
}

func (v *HistogramVec) kind() Kind { return KindHistogram }

func (v *HistogramVec) expose(w io.Writer, name string) error {
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for value := range v.children {
		values = append(values, value)
	}
	v.mu.Unlock()
	sort.Strings(values)
	for _, value := range values {
		v.mu.Lock()
		h := v.children[value]
		v.mu.Unlock()
		if err := h.exposeLabeled(w, name, fmt.Sprintf("%s=%q", v.label, value)); err != nil {
			return err
		}
	}
	return nil
}

// escapeHelp is reserved for help strings containing newlines/backslashes.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
