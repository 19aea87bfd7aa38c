package verify

import (
	"fmt"
	"sort"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// Widening is one unit of allow-set growth between two policy epochs:
// flows the next document allows that the previous one did not (either
// never allowed, or denied by a deny that no longer applies).
type Widening struct {
	// Line is the 1-based line of the widening allow in the next document.
	Line int `json:"line"`
	// Stmt is that allow's canonical statement text.
	Stmt string `json:"stmt"`
	// Rule is the specific lowered rule whose reachability is new.
	Rule string `json:"rule"`
	// PrevLine points at the previous document's deny that used to block
	// these flows (its line in that document as applied), 0 when the flows
	// were simply never allowed before.
	PrevLine int    `json:"prevLine,omitempty"`
	Message  string `json:"message"`
}

// VerifyTransition computes the allow-set widening from prev to next:
// every lowered allow in next that grants reachability prev did not. It
// reads both programs' lowerings and lowers nothing. Template bodies are
// excluded — they widen nothing until instantiated. Results are sorted by
// line, then rule text.
func VerifyTransition(prev, next *compile.Program) []Widening {
	wc := newWindowCache()
	nextRules := docRules(next, wc)
	nextDenies := buildIndex(denies(nextRules))
	// A deny of next with d's exact match set, at a priority that still
	// beats n, over at least d's window, still blocks what d blocked.
	return widen(docRules(prev, wc), nextRules, func(d, n *vrule) bool {
		for _, d2 := range nextDenies.byMask[d.mask][d.key] {
			if d2.prio >= n.prio && d2.bits.contains(d.bits) {
				return true
			}
		}
		return false
	})
}

// widen is VerifyTransition over analysis rules. stillDenied(d, n) reports
// whether the next document still blocks what previous deny d blocked of
// widening allow n.
func widen(prevRules, nextRules []*vrule, stillDenied func(d, n *vrule) bool) []Widening {
	ix := buildIndex(prevRules)
	prevDenies := denies(prevRules)

	var out []Widening
	for _, n := range nextRules {
		if n.action != policy.ActionAllow {
			continue
		}
		// Previous allows covering n's whole match set, and the effective
		// priority n's flows were allowed at (the strongest coverer).
		var allowBits weekBits
		covered := false
		effPrio := 0
		for _, p := range ix.coverersOf(n) {
			if p.action != policy.ActionAllow {
				continue
			}
			allowBits.or(p.bits)
			if !covered || p.prio > effPrio {
				effPrio = p.prio
			}
			covered = true
		}
		if !covered || !allowBits.contains(n.bits) {
			out = append(out, Widening{
				Line: n.line, Stmt: n.stmt, Rule: policytext.FormatRule(n.rule),
				Message: "grants reachability no previous allow covered",
			})
			continue
		}
		// The flows were allowed — unless a previous deny outranked the
		// covering allows (deny wins ties). A deny that merely overlaps n
		// still blocked part of n's match set, so any overlap counts.
		for _, d := range prevDenies {
			if d.prio < effPrio {
				continue
			}
			if !d.rule.Overlaps(&n.rule) || !d.bits.intersects(n.bits) {
				continue
			}
			if stillDenied(d, n) {
				continue
			}
			out = append(out, Widening{
				Line: n.line, Stmt: n.stmt, Rule: policytext.FormatRule(n.rule), PrevLine: d.line,
				Message: fmt.Sprintf("flows previously blocked by deny %q (line %d, priority %d) are now allowed",
					d.stmt, d.line, d.prio),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.PrevLine < b.PrevLine
	})
	return out
}

func denies(rules []*vrule) []*vrule {
	var out []*vrule
	for _, v := range rules {
		if v.action == policy.ActionDeny {
			out = append(out, v)
		}
	}
	return out
}
