// Package pdp implements DFI's Policy Decision Points (paper §III-B): the
// components that evaluate event-driven conditions and emit or revoke
// policy rules in the Policy Manager. Each PDP provides one kind of policy
// and owns a unique administrator-assigned priority:
//
//   - AllowAll — the evaluation's no-access-control baseline.
//   - SRBAC — static role-based access control: enclave peers and servers
//     are reachable indefinitely.
//   - ATRBAC — authentication-triggered RBAC, the policy uniquely enabled
//     by DFI: role-based reachability exists only while users are logged
//     on, and is revoked at log-off.
//
// Quarantine-upon-compromise is not a Go PDP: it is the policy-language
// template quarantine(h), instantiated per compromise event (see
// sensors.AttachQuarantineTemplate).
package pdp

import (
	"sort"

	"github.com/dfi-sdn/dfi/internal/core/policy"
)

// Conventional priorities for the provided PDPs; higher wins.
const (
	PriorityAllowAll   = 10
	PriorityStaticRBAC = 100
	PriorityATRBAC     = 110
)

// ServiceEndpoint names one core authentication service: the host serving
// it and the protocol/port it listens on. Restricting the always-on
// baseline to these ports is what keeps a no-user host from reaching the
// same machines over other services (e.g. SMB).
type ServiceEndpoint struct {
	Host  string
	Proto uint8
	Port  uint16
}

// Roster describes the role structure RBAC PDPs enforce: which enclave
// (department) each host belongs to, which hosts are globally-reachable
// servers, and the core authentication service endpoints (DHCP, DNS, AD)
// that must stay reachable even with no user logged on.
type Roster struct {
	EnclaveOf    map[string]string
	Servers      []string
	CoreServices []ServiceEndpoint
}

// Peers returns the other hosts in host's enclave, sorted.
func (r *Roster) Peers(host string) []string {
	enclave, ok := r.EnclaveOf[host]
	if !ok {
		return nil
	}
	var peers []string
	for h, e := range r.EnclaveOf {
		if e == enclave && h != host {
			peers = append(peers, h)
		}
	}
	sort.Strings(peers)
	return peers
}

// Hosts returns every host in the roster, sorted.
func (r *Roster) Hosts() []string {
	hosts := make([]string, 0, len(r.EnclaveOf))
	for h := range r.EnclaveOf {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// IsServer reports whether host is in the server set.
func (r *Roster) IsServer(host string) bool {
	for _, s := range r.Servers {
		if s == host {
			return true
		}
	}
	return false
}

// allowHosts builds the host-to-host allow rule the RBAC PDPs emit.
func allowHosts(pdpName, src, dst string) policy.Rule {
	return policy.Rule{
		PDP:    pdpName,
		Action: policy.ActionAllow,
		Src:    policy.EndpointSpec{Host: src},
		Dst:    policy.EndpointSpec{Host: dst},
	}
}

// held returns the ids pm still stores. An in-process caller may revoke a
// PDP's rule behind its back, and one unknown id rejects a whole apply, so
// a PDP withdrawing what it emitted revokes only what is left.
func held(pm *policy.Manager, ids []policy.RuleID) []policy.RuleID {
	snap := pm.Snapshot()
	var out []policy.RuleID
	for _, id := range ids {
		if snap.Get(id) != nil {
			out = append(out, id)
		}
	}
	return out
}
