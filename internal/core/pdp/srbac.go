package pdp

import (
	"fmt"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/obs"
)

// SRBAC implements the paper's static role-based access control condition
// (§V-B): each host may exchange flows with 1) every host in its own
// enclave and 2) every server, configured once and never changing. It
// demonstrates the class of policy conventional systems can already
// express, against which AT-RBAC is compared.
type SRBAC struct {
	pm     *policy.Manager
	name   string
	roster Roster
	ids    []policy.RuleID
}

// NewSRBAC registers the PDP with the Policy Manager at
// PriorityStaticRBAC.
func NewSRBAC(pm *policy.Manager, roster Roster) (*SRBAC, error) {
	s := &SRBAC{pm: pm, name: "s-rbac", roster: roster}
	if err := pm.RegisterPDP(s.name, PriorityStaticRBAC); err != nil {
		return nil, fmt.Errorf("s-rbac: %w", err)
	}
	return s, nil
}

// Name returns the PDP's registered name.
func (s *SRBAC) Name() string { return s.name }

// Install emits the full static policy. It returns the number of rules
// inserted.
func (s *SRBAC) Install() (int, error) {
	rules := s.compile()
	ids, _, err := s.pm.ApplyCtx(obs.SpanContext{}, rules, nil)
	if err != nil {
		return 0, fmt.Errorf("s-rbac: %w", err)
	}
	s.ids = ids
	return len(ids), nil
}

// Uninstall revokes the static policy.
func (s *SRBAC) Uninstall() {
	// Only a concurrent revoke can fail the apply; a later call retries.
	if _, _, err := s.pm.ApplyCtx(obs.SpanContext{}, nil, held(s.pm, s.ids)); err == nil {
		s.ids = nil
	}
}

// compile expands the roster into ordered host-pair allow rules, exactly
// once per pair.
func (s *SRBAC) compile() []policy.Rule {
	type pair struct{ src, dst string }
	seen := make(map[pair]struct{})
	var rules []policy.Rule
	emit := func(src, dst string) {
		if src == dst {
			return
		}
		p := pair{src: src, dst: dst}
		if _, dup := seen[p]; dup {
			return
		}
		seen[p] = struct{}{}
		rules = append(rules, allowHosts(s.name, src, dst))
	}
	for _, h := range s.roster.Hosts() {
		for _, peer := range s.roster.Peers(h) {
			emit(h, peer)
		}
		for _, srv := range s.roster.Servers {
			emit(h, srv)
			emit(srv, h)
		}
	}
	return rules
}
