package pdp

import (
	"fmt"
	"slices"
	"sync"

	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/sensors"
)

// ATRBAC implements authentication-triggered role-based access control,
// the event-driven policy uniquely enabled by DFI (paper §V-B): role-based
// reachability for a host exists only while a user is logged onto it, and
// is revoked — including flushing cached flow rules — at log-off.
//
// Reachability semantics: a flow between two department hosts is allowed
// only while BOTH have logged-on users; host↔server flows require only the
// host's user. With no user, a host may reach only the core authentication
// services (DHCP, DNS, AD), which stay reachable via static baseline rules,
// as do server↔server flows (operational need; servers have no users).
type ATRBAC struct {
	pm     *policy.Manager
	name   string
	roster Roster

	mu sync.Mutex
	// users tracks logged-on users per host.
	users map[string]map[string]struct{}
	// pairRules maps an active host pair/server grant to its rule id.
	pairRules map[pairKey]policy.RuleID
	baseline  []policy.RuleID
	sub       *bus.Subscription
	started   bool
}

type pairKey struct {
	src string
	dst string
}

// NewATRBAC registers the PDP with the Policy Manager at PriorityATRBAC.
func NewATRBAC(pm *policy.Manager, roster Roster) (*ATRBAC, error) {
	a := &ATRBAC{
		pm:        pm,
		name:      "at-rbac",
		roster:    roster,
		users:     make(map[string]map[string]struct{}),
		pairRules: make(map[pairKey]policy.RuleID),
	}
	if err := pm.RegisterPDP(a.name, PriorityATRBAC); err != nil {
		return nil, fmt.Errorf("at-rbac: %w", err)
	}
	return a, nil
}

// Name returns the PDP's registered name.
func (a *ATRBAC) Name() string { return a.name }

// Start installs the static baseline (core services and server↔server) and
// subscribes to authentication events on b. Pass a nil bus to drive the
// PDP directly via HandleAuth (as the simulated testbed does).
func (a *ATRBAC) Start(b *bus.Bus) error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return nil
	}
	a.started = true
	a.mu.Unlock()

	var rules []policy.Rule
	// Core authentication services stay reachable for everyone — a host
	// with no user must still be able to authenticate one — but only on
	// the services' own protocol and port, so the same machines cannot be
	// reached over anything else (e.g. SMB) from a no-user host.
	for _, core := range a.roster.CoreServices {
		ethType := netpkt.EtherTypeIPv4
		proto := core.Proto
		port := core.Port
		rules = append(rules,
			policy.Rule{
				PDP: a.name, Action: policy.ActionAllow,
				Props: policy.FlowProperties{EtherType: &ethType, IPProto: &proto},
				Dst:   policy.EndpointSpec{Host: core.Host, Port: &port},
			},
			policy.Rule{
				PDP: a.name, Action: policy.ActionAllow,
				Props: policy.FlowProperties{EtherType: &ethType, IPProto: &proto},
				Src:   policy.EndpointSpec{Host: core.Host, Port: &port},
			},
		)
	}
	// Servers have no interactive users; inter-server flows are static.
	for _, s1 := range a.roster.Servers {
		for _, s2 := range a.roster.Servers {
			if s1 != s2 {
				rules = append(rules, allowHosts(a.name, s1, s2))
			}
		}
	}
	ids, _, err := a.pm.ApplyCtx(obs.SpanContext{}, rules, nil)
	if err != nil {
		return fmt.Errorf("at-rbac baseline: %w", err)
	}
	a.mu.Lock()
	a.baseline = ids
	a.mu.Unlock()

	if b == nil {
		return nil
	}
	sub, err := b.Subscribe(sensors.TopicAuth, func(ev bus.Event) {
		ae, ok := ev.Payload.(sensors.AuthEvent)
		if !ok {
			return
		}
		a.HandleAuth(ae)
	})
	if err != nil {
		return fmt.Errorf("at-rbac subscribe: %w", err)
	}
	a.mu.Lock()
	a.sub = sub
	a.mu.Unlock()
	return nil
}

// Stop cancels the subscription and revokes every rule the PDP emitted —
// the baseline and the active pair grants — in one apply.
func (a *ATRBAC) Stop() {
	a.mu.Lock()
	sub := a.sub
	a.sub = nil
	a.started = false
	a.mu.Unlock()
	if sub != nil {
		sub.Cancel()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := append([]policy.RuleID(nil), a.baseline...)
	for _, id := range a.pairRules {
		ids = append(ids, id)
	}
	// Only a concurrent revoke of one of these ids can fail the apply.
	_, _, _ = a.pm.ApplyCtx(obs.SpanContext{}, nil, held(a.pm, ids))
	a.pairRules = make(map[pairKey]policy.RuleID)
	a.baseline = nil
	a.users = make(map[string]map[string]struct{})
}

// HandleAuth applies one log-on/log-off event, emitting or revoking the
// affected host's role-based reachability.
func (a *ATRBAC) HandleAuth(ev sensors.AuthEvent) {
	if _, known := a.roster.EnclaveOf[ev.Host]; !known {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if ev.LoggedOn {
		set := a.users[ev.Host]
		if set == nil {
			set = make(map[string]struct{})
			a.users[ev.Host] = set
		}
		first := len(set) == 0
		set[ev.User] = struct{}{}
		if first {
			a.grantLocked(ev.Host)
		}
		return
	}
	set := a.users[ev.Host]
	if set == nil {
		return
	}
	delete(set, ev.User)
	if len(set) == 0 {
		delete(a.users, ev.Host)
		a.revokeLocked(ev.Host)
	}
}

// ActiveRules reports the number of dynamic pair rules currently emitted.
func (a *ATRBAC) ActiveRules() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pairRules)
}

// LoggedOnHosts reports how many hosts currently have at least one user.
func (a *ATRBAC) LoggedOnHosts() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.users)
}

// grantLocked emits host's role set in one apply: pairwise reachability
// with every *also-logged-on* enclave peer (both directions) and with
// every server.
func (a *ATRBAC) grantLocked(host string) {
	var keys []pairKey
	var rules []policy.Rule
	add := func(src, dst string) {
		key := pairKey{src: src, dst: dst}
		if _, exists := a.pairRules[key]; !exists && !slices.Contains(keys, key) {
			keys = append(keys, key)
			rules = append(rules, allowHosts(a.name, src, dst))
		}
	}
	for _, peer := range a.roster.Peers(host) {
		if _, on := a.users[peer]; on {
			add(host, peer)
			add(peer, host)
		}
	}
	for _, srv := range a.roster.Servers {
		if srv != host {
			add(host, srv)
			add(srv, host)
		}
	}
	// The PDP registered itself, so the apply cannot be rejected.
	ids, _, err := a.pm.ApplyCtx(obs.SpanContext{}, rules, nil)
	if err != nil {
		return
	}
	for i, key := range keys {
		a.pairRules[key] = ids[i]
	}
}

// revokeLocked withdraws every pair rule mentioning host in one apply;
// the Policy Manager's flush notification removes any cached flow rules,
// cutting even in-progress flows.
func (a *ATRBAC) revokeLocked(host string) {
	var ids []policy.RuleID
	for key, id := range a.pairRules {
		if key.src == host || key.dst == host {
			ids = append(ids, id)
			delete(a.pairRules, key)
		}
	}
	// Only a concurrent revoke of one of these ids can fail the apply.
	_, _, _ = a.pm.ApplyCtx(obs.SpanContext{}, nil, held(a.pm, ids))
}
