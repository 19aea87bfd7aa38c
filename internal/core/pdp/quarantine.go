package pdp

import (
	"fmt"
	"sync"

	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/sensors"
)

// Quarantine is a quarantine-upon-compromise PDP (one of the paper's
// motivating policy types, §III-B): when a sensor flags an endpoint as
// compromised, the PDP emits top-priority Deny rules that isolate it in
// both directions — overriding every allow rule from lower-priority PDPs —
// and flushes its cached flow rules, cutting flows already in progress.
type Quarantine struct {
	pm   *policy.Manager
	name string

	mu     sync.Mutex
	byHost map[string][]policy.RuleID
	sub    *bus.Subscription
}

// NewQuarantine registers the PDP with the Policy Manager at
// PriorityQuarantine.
func NewQuarantine(pm *policy.Manager) (*Quarantine, error) {
	q := &Quarantine{pm: pm, name: "quarantine", byHost: make(map[string][]policy.RuleID)}
	if err := pm.RegisterPDP(q.name, PriorityQuarantine); err != nil {
		return nil, fmt.Errorf("quarantine: %w", err)
	}
	return q, nil
}

// Name returns the PDP's registered name.
func (q *Quarantine) Name() string { return q.name }

// Start subscribes to compromise events on b. Pass a nil bus to drive the
// PDP directly via Isolate/Release.
func (q *Quarantine) Start(b *bus.Bus) error {
	if b == nil {
		return nil
	}
	sub, err := b.Subscribe(sensors.TopicCompromise, func(ev bus.Event) {
		ce, ok := ev.Payload.(sensors.CompromiseEvent)
		if !ok {
			return
		}
		if ce.Cleared {
			_ = q.ReleaseCtx(ev.Trace, ce.Host)
		} else {
			_ = q.IsolateCtx(ev.Trace, ce.Host)
		}
	})
	if err != nil {
		return fmt.Errorf("quarantine subscribe: %w", err)
	}
	q.mu.Lock()
	q.sub = sub
	q.mu.Unlock()
	return nil
}

// Stop cancels the subscription; existing quarantines remain in force.
func (q *Quarantine) Stop() {
	q.mu.Lock()
	sub := q.sub
	q.sub = nil
	q.mu.Unlock()
	if sub != nil {
		sub.Cancel()
	}
}

// Isolate denies all flows to and from host.
func (q *Quarantine) Isolate(host string) error {
	return q.IsolateCtx(obs.SpanContext{}, host)
}

// IsolateCtx is Isolate carrying a causal span context (the compromise
// event's publish span, when driven off the bus), so the emitted deny
// rules' policy spans and flushes join the event's trace.
func (q *Quarantine) IsolateCtx(sc obs.SpanContext, host string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, already := q.byHost[host]; already {
		return nil
	}
	rules := []policy.Rule{
		{PDP: q.name, Action: policy.ActionDeny, Src: policy.EndpointSpec{Host: host}},
		{PDP: q.name, Action: policy.ActionDeny, Dst: policy.EndpointSpec{Host: host}},
	}
	ids, _, err := q.pm.ApplyCtx(sc, rules, nil)
	if err != nil {
		return fmt.Errorf("quarantine %q: %w", host, err)
	}
	q.byHost[host] = ids
	return nil
}

// Release lifts a quarantine.
func (q *Quarantine) Release(host string) error {
	return q.ReleaseCtx(obs.SpanContext{}, host)
}

// ReleaseCtx is Release carrying a causal span context (see IsolateCtx).
func (q *Quarantine) ReleaseCtx(sc obs.SpanContext, host string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids, ok := q.byHost[host]
	if !ok {
		return nil
	}
	if _, _, err := q.pm.ApplyCtx(sc, nil, held(q.pm, ids)); err != nil {
		return fmt.Errorf("release %q: %w", host, err)
	}
	delete(q.byHost, host)
	return nil
}

// Quarantined reports whether host is currently isolated.
func (q *Quarantine) Quarantined(host string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.byHost[host]
	return ok
}
