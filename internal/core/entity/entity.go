// Package entity implements DFI's Entity Resolution Manager (paper §III-B):
// it maintains the current, possibly many-to-many bindings along the chain
//
//	username ↔ hostname ↔ IP address ↔ MAC address ↔ (switch, port)
//
// fed by identifier-binding sensors attached to authoritative sources (SIEM
// logs, DNS, DHCP, and the PCP's MAC-location sensor), and resolves the
// low-level identifiers observed in packets up to high-level identifiers at
// access-control decision time. It also detects spoofed traffic whose
// identifiers are inconsistent with the expected bindings.
package entity

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/store"
)

// ErrInconsistent reports that a packet's identifiers contradict the
// current authoritative bindings (e.g. a source IP bound to a different
// MAC), indicating spoofing; such traffic must not match identity policy.
var ErrInconsistent = errors.New("entity: identifiers inconsistent with bindings")

// Location is a switch attachment point.
type Location struct {
	DPID uint64
	Port uint32
}

// Manager is the Entity Resolution Manager.
type Manager struct {
	clock   simclock.Clock
	latency store.LatencyModel

	// spoofRejections counts resolutions refused with ErrInconsistent.
	// Nil (a no-op) unless WithObserver installed a registry.
	spoofRejections *obs.Counter

	// audit (WithAuditLog) appends a kind="binding" record per effective
	// binding mutation; nil-safe when unconfigured.
	audit *obs.AuditLog

	// epoch counts effective binding mutations: it is bumped only when a
	// Bind*/Unbind* call actually changes the stored bindings, never on
	// no-op re-binds (the PCP re-observes every flow's MAC location, so a
	// no-op bump would defeat any epoch-validated decision cache). A
	// resolution performed at epoch E stays valid while the epoch is E.
	epoch atomic.Uint64

	mu sync.RWMutex
	// username <-> hostname (SIEM log-on sensor).
	userToHosts map[string]map[string]struct{}
	hostToUsers map[string]map[string]struct{}
	// hostname <-> IP (DNS sensor).
	hostToIPs map[string]map[netpkt.IPv4]struct{}
	ipToHost  map[netpkt.IPv4]string
	// IP <-> MAC (DHCP sensor). One MAC per IP at a time.
	ipToMAC  map[netpkt.IPv4]netpkt.MAC
	macToIPs map[netpkt.MAC]map[netpkt.IPv4]struct{}
	// MAC <-> (switch, port) (PCP sensor). At most one port per switch.
	macToLoc map[netpkt.MAC]map[uint64]uint32
}

// Option configures a Manager.
type Option func(*Manager)

// WithQueryLatency injects a simulated per-resolution cost (the paper's
// measured RPC+MySQL binding-query latency) charged on the given clock.
func WithQueryLatency(clock simclock.Clock, m store.LatencyModel) Option {
	return func(em *Manager) {
		em.clock = clock
		em.latency = m
	}
}

// WithObserver registers the Entity Resolution Manager's instruments —
// binding count, binding epoch, spoof rejections — with reg. Binding-query
// latency is not re-measured here: the PCP times the full query from outside
// as dfi_pcp_stage_seconds{stage="binding_query"}.
func WithObserver(reg *obs.Registry) Option {
	return func(em *Manager) {
		em.spoofRejections = reg.Counter("dfi_entity_spoof_rejections_total",
			"Resolutions refused because packet identifiers contradicted the bindings.")
		reg.GaugeFunc("dfi_entity_epoch",
			"Current binding epoch (bumps only on effective binding changes).",
			func() float64 { return float64(em.Epoch()) })
		reg.GaugeFunc("dfi_entity_bindings",
			"Stored binding edges across all levels of the identifier chain.",
			func() float64 { return float64(em.bindingCount()) })
	}
}

// WithAuditLog attaches the tamper-evident audit log: every effective
// binding mutation (no-op re-binds excluded, mirroring the epoch rules)
// appends a kind="binding" record.
func WithAuditLog(a *obs.AuditLog) Option {
	return func(em *Manager) { em.audit = a }
}

// NewManager returns an empty Entity Resolution Manager.
func NewManager(opts ...Option) *Manager {
	m := &Manager{
		userToHosts: make(map[string]map[string]struct{}),
		hostToUsers: make(map[string]map[string]struct{}),
		hostToIPs:   make(map[string]map[netpkt.IPv4]struct{}),
		ipToHost:    make(map[netpkt.IPv4]string),
		ipToMAC:     make(map[netpkt.IPv4]netpkt.MAC),
		macToIPs:    make(map[netpkt.MAC]map[netpkt.IPv4]struct{}),
		macToLoc:    make(map[netpkt.MAC]map[uint64]uint32),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Epoch returns the current binding epoch (see the epoch field): it
// increases exactly when the stored bindings change, so a decision derived
// from resolutions at epoch E is stale iff Epoch() != E.
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// bump records an effective binding mutation. Called with m.mu held for
// writing, so the new epoch is visible before the mutation's lock release.
func (m *Manager) bump(changed bool) {
	if changed {
		m.epoch.Add(1)
	}
}

// BindUserHost records that user is logged onto host.
func (m *Manager) BindUserHost(user, host string) {
	m.mu.Lock()
	changed := addTo(m.userToHosts, user, host)
	addTo(m.hostToUsers, host, user)
	m.bump(changed)
	m.mu.Unlock()
	if changed {
		m.auditf("bind", "user-host %s@%s", user, host)
	}
}

// UnbindUserHost records that user logged off host.
func (m *Manager) UnbindUserHost(user, host string) {
	m.mu.Lock()
	changed := removeFrom(m.userToHosts, user, host)
	removeFrom(m.hostToUsers, host, user)
	m.bump(changed)
	m.mu.Unlock()
	if changed {
		m.auditf("unbind", "user-host %s@%s", user, host)
	}
}

// BindHostIP records a DNS binding between host and ip. An IP maps to one
// hostname at a time (authoritative DNS A/PTR view); a host may hold many
// IPs (multiple interfaces).
func (m *Manager) BindHostIP(host string, ip netpkt.IPv4) {
	m.mu.Lock()
	prev, had := m.ipToHost[ip]
	if had && prev == host {
		m.mu.Unlock()
		return
	}
	if had {
		removeFromKey(m.hostToIPs, prev, ip)
	}
	m.ipToHost[ip] = host
	addToKey(m.hostToIPs, host, ip)
	m.bump(true)
	m.mu.Unlock()
	m.auditf("bind", "host-ip %s=%s", host, ip)
}

// UnbindHostIP removes a DNS binding.
func (m *Manager) UnbindHostIP(host string, ip netpkt.IPv4) {
	m.mu.Lock()
	changed := false
	if m.ipToHost[ip] == host {
		delete(m.ipToHost, ip)
		changed = true
	}
	if removeFromKey(m.hostToIPs, host, ip) {
		changed = true
	}
	m.bump(changed)
	m.mu.Unlock()
	if changed {
		m.auditf("unbind", "host-ip %s=%s", host, ip)
	}
}

// BindIPMAC records a DHCP lease binding ip to mac, replacing any previous
// MAC for that IP (a lease reassignment).
func (m *Manager) BindIPMAC(ip netpkt.IPv4, mac netpkt.MAC) {
	m.mu.Lock()
	prev, had := m.ipToMAC[ip]
	if had && prev == mac {
		m.mu.Unlock()
		return
	}
	if had {
		removeIPFrom(m.macToIPs, prev, ip)
	}
	m.ipToMAC[ip] = mac
	if m.macToIPs[mac] == nil {
		m.macToIPs[mac] = make(map[netpkt.IPv4]struct{})
	}
	m.macToIPs[mac][ip] = struct{}{}
	m.bump(true)
	m.mu.Unlock()
	m.auditf("bind", "ip-mac %s=%s", ip, mac)
}

// UnbindIPMAC removes a DHCP lease binding (lease expiry/release).
func (m *Manager) UnbindIPMAC(ip netpkt.IPv4, mac netpkt.MAC) {
	m.mu.Lock()
	changed := false
	if m.ipToMAC[ip] == mac {
		delete(m.ipToMAC, ip)
		changed = true
	}
	if removeIPFrom(m.macToIPs, mac, ip) {
		changed = true
	}
	m.bump(changed)
	m.mu.Unlock()
	if changed {
		m.auditf("unbind", "ip-mac %s=%s", ip, mac)
	}
}

// BindMACLocation records that mac was observed attached to port on switch
// dpid. Each MAC has at most one port per switch (paper §IV-A); a new port
// replaces the old one. Re-observing an unchanged location — the common
// case, since the PCP reports it for every admitted flow — leaves the
// binding epoch untouched.
func (m *Manager) BindMACLocation(mac netpkt.MAC, loc Location) {
	m.mu.Lock()
	if port, ok := m.macToLoc[mac][loc.DPID]; ok && port == loc.Port {
		m.mu.Unlock()
		return
	}
	if m.macToLoc[mac] == nil {
		m.macToLoc[mac] = make(map[uint64]uint32)
	}
	m.macToLoc[mac][loc.DPID] = loc.Port
	m.bump(true)
	m.mu.Unlock()
	m.auditf("bind", "mac-location %s@%#x:%d", mac, loc.DPID, loc.Port)
}

// UnbindMACLocation removes a MAC's attachment on one switch.
func (m *Manager) UnbindMACLocation(mac netpkt.MAC, dpid uint64) {
	m.mu.Lock()
	changed := false
	if ports, ok := m.macToLoc[mac]; ok {
		if _, had := ports[dpid]; had {
			delete(ports, dpid)
			if len(ports) == 0 {
				delete(m.macToLoc, mac)
			}
			m.bump(true)
			changed = true
		}
	}
	m.mu.Unlock()
	if changed {
		m.auditf("unbind", "mac-location %s@%#x", mac, dpid)
	}
}

// auditf appends one kind="binding" record for an effective mutation; a
// no-op without WithAuditLog. Always called after the write lock is
// released, so audit-log I/O never stalls admission-time resolutions
// waiting on the read lock.
func (m *Manager) auditf(op, format string, args ...any) {
	if m.audit == nil {
		return
	}
	m.audit.Append(obs.AuditRecord{
		Kind:        "binding",
		Op:          op,
		EntityEpoch: m.Epoch(),
		Detail:      fmt.Sprintf(format, args...),
	})
}

// Observed is the set of low-level identifiers harvested from one end of a
// packet, as supplied by the PCP from a packet-in.
type Observed struct {
	MAC   netpkt.MAC
	HasIP bool
	IP    netpkt.IPv4
	// HasLoc is set for the source endpoint (the packet's ingress).
	HasLoc bool
	Loc    Location
}

// Resolution is the enriched identity for one endpoint.
type Resolution struct {
	Host  string
	Users []string
}

// Resolve maps the observed low-level identifiers of one endpoint up to its
// hostname and logged-on users, verifying that identifiers at all levels
// match the expected bindings; inconsistent identifiers return
// ErrInconsistent (spoof prevention, paper §III-B). Resolution happens at
// access-control decision time, never at policy-insert time, so bindings
// are always current.
func (m *Manager) Resolve(o Observed) (Resolution, error) {
	store.Charge(m.clock, m.latency)
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.resolveLocked(o)
}

// ResolveBoth resolves the two endpoints of one flow in a single query
// round trip (one latency charge), as the PCP's per-flow binding query
// (paper Table II).
func (m *Manager) ResolveBoth(src, dst Observed) (Resolution, Resolution, error) {
	store.Charge(m.clock, m.latency)
	m.mu.RLock()
	defer m.mu.RUnlock()
	srcRes, err := m.resolveLocked(src)
	if err != nil {
		return srcRes, Resolution{}, err
	}
	dstRes, err := m.resolveLocked(dst)
	return srcRes, dstRes, err
}

func (m *Manager) resolveLocked(o Observed) (Resolution, error) {
	var res Resolution
	if o.HasIP && !o.IP.IsZero() {
		if boundMAC, ok := m.ipToMAC[o.IP]; ok && boundMAC != o.MAC {
			m.spoofRejections.Inc()
			return res, fmt.Errorf("%w: IP %s bound to MAC %s, packet uses %s",
				ErrInconsistent, o.IP, boundMAC, o.MAC)
		}
		res.Host = m.ipToHost[o.IP]
	}
	if o.HasLoc {
		if ports, ok := m.macToLoc[o.MAC]; ok {
			if port, ok := ports[o.Loc.DPID]; ok && port != o.Loc.Port {
				m.spoofRejections.Inc()
				return res, fmt.Errorf("%w: MAC %s expected on port %d of switch %#x, seen on %d",
					ErrInconsistent, o.MAC, port, o.Loc.DPID, o.Loc.Port)
			}
		}
	}
	if res.Host != "" {
		for u := range m.hostToUsers[res.Host] {
			res.Users = append(res.Users, u)
		}
		sort.Strings(res.Users)
	}
	return res, nil
}

// bindingCount totals the stored binding edges: user↔host pairs, IP→host
// DNS entries, IP→MAC leases, and MAC→(switch,port) attachments.
func (m *Manager) bindingCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.ipToHost) + len(m.ipToMAC)
	for _, hosts := range m.userToHosts {
		n += len(hosts)
	}
	for _, ports := range m.macToLoc {
		n += len(ports)
	}
	return n
}

// UsersOn returns the users currently bound to host.
func (m *Manager) UsersOn(host string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	users := make([]string, 0, len(m.hostToUsers[host]))
	for u := range m.hostToUsers[host] {
		users = append(users, u)
	}
	sort.Strings(users)
	return users
}

// HostsOf returns the hosts user is currently logged onto.
func (m *Manager) HostsOf(user string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hosts := make([]string, 0, len(m.userToHosts[user]))
	for h := range m.userToHosts[user] {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// IPsOf returns the IPs currently bound to host.
func (m *Manager) IPsOf(host string) []netpkt.IPv4 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ips := make([]netpkt.IPv4, 0, len(m.hostToIPs[host]))
	for ip := range m.hostToIPs[host] {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Uint32() < ips[j].Uint32() })
	return ips
}

// HostOf returns the hostname bound to ip, if any.
func (m *Manager) HostOf(ip netpkt.IPv4) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h, ok := m.ipToHost[ip]
	return h, ok
}

// MACOf returns the MAC bound to ip, if any.
func (m *Manager) MACOf(ip netpkt.IPv4) (netpkt.MAC, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mac, ok := m.ipToMAC[ip]
	return mac, ok
}

// LocationOf returns mac's attachment port on switch dpid, if known.
func (m *Manager) LocationOf(mac netpkt.MAC, dpid uint64) (uint32, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	port, ok := m.macToLoc[mac][dpid]
	return port, ok
}

func addTo(m map[string]map[string]struct{}, k, v string) bool {
	if m[k] == nil {
		m[k] = make(map[string]struct{})
	}
	if _, had := m[k][v]; had {
		return false
	}
	m[k][v] = struct{}{}
	return true
}

func removeFrom(m map[string]map[string]struct{}, k, v string) bool {
	set, ok := m[k]
	if !ok {
		return false
	}
	if _, had := set[v]; !had {
		return false
	}
	delete(set, v)
	if len(set) == 0 {
		delete(m, k)
	}
	return true
}

func addToKey(m map[string]map[netpkt.IPv4]struct{}, k string, ip netpkt.IPv4) {
	if m[k] == nil {
		m[k] = make(map[netpkt.IPv4]struct{})
	}
	m[k][ip] = struct{}{}
}

func removeFromKey(m map[string]map[netpkt.IPv4]struct{}, k string, ip netpkt.IPv4) bool {
	set, ok := m[k]
	if !ok {
		return false
	}
	if _, had := set[ip]; !had {
		return false
	}
	delete(set, ip)
	if len(set) == 0 {
		delete(m, k)
	}
	return true
}

func removeIPFrom(m map[netpkt.MAC]map[netpkt.IPv4]struct{}, mac netpkt.MAC, ip netpkt.IPv4) bool {
	set, ok := m[mac]
	if !ok {
		return false
	}
	if _, had := set[ip]; !had {
		return false
	}
	delete(set, ip)
	if len(set) == 0 {
		delete(m, mac)
	}
	return true
}
