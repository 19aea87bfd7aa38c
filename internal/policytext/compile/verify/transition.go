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
// reads both programs' lowerings and lowers nothing, and it examines only
// the allows that can widen (transitionCandidates), so a one-line edit
// re-checks a handful of allows, not every one. Template bodies are
// excluded — they widen nothing until instantiated. Results are sorted by
// line, then rule text.
func VerifyTransition(prev, next *compile.Program) []Widening {
	pa, na := analyse(prev), analyse(next)
	// held reports whether next has a deny with d's exact match set, at
	// priority ≥ prio, over at least d's window: it still blocks what d
	// blocked of an allow at priority ≤ prio.
	held := func(d *vrule, prio int) bool {
		for _, d2 := range na.ix.byMask[d.mask][d.key] {
			if d2.action == policy.ActionDeny && d2.prio >= prio && d2.bits.contains(d.bits) {
				return true
			}
		}
		return false
	}
	allows := transitionCandidates(pa.ix, pa.denies, na.rules, held)
	return widen(pa.ix, pa.denies, allows, func(d, n *vrule) bool { return held(d, n.prio) })
}

// transitionCandidates returns the allows of nextRules that widen can
// flag: an allow prev holds no twin for — an allow with its match set, at
// ≥ its priority, over ≥ its window — and an allow overlapping a deny of
// prev that next no longer holds at ≥ the deny's priority over ≥ its
// window. Any other allow was allowed before at a priority ≥ its own, and
// every prev deny that outranked that was at ≥ its priority and is still
// held, so widen passes it over.
func transitionCandidates(prevIx *covererIndex, prevDenies, nextRules []*vrule, held func(d *vrule, prio int) bool) []*vrule {
	var lost []*vrule
	for _, d := range prevDenies {
		if !held(d, d.prio) {
			lost = append(lost, d)
		}
	}
	var out []*vrule
	for _, n := range nextRules {
		if n.action != policy.ActionAllow {
			continue
		}
		if !hasTwin(prevIx, n) || overlapsAny(lost, n) {
			out = append(out, n)
		}
	}
	return out
}

// hasTwin reports whether ix holds an allow with n's match set at ≥ n's
// priority over ≥ n's window.
func hasTwin(ix *covererIndex, n *vrule) bool {
	for _, p := range ix.byMask[n.mask][n.key] {
		if p.action == policy.ActionAllow && p.prio >= n.prio && p.bits.contains(n.bits) {
			return true
		}
	}
	return false
}

// overlapsAny reports whether a deny of ds at ≥ n's priority overlaps n.
func overlapsAny(ds []*vrule, n *vrule) bool {
	for _, d := range ds {
		if d.prio >= n.prio && d.rule.Overlaps(n.rule) && d.bits.intersects(n.bits) {
			return true
		}
	}
	return false
}

// widen reports the widenings among next's allows: ix indexes the
// previous program's analysis rules and prevDenies lists its denies.
// stillDenied(d, n) reports whether the next document still blocks what
// previous deny d blocked of widening allow n.
func widen(ix *covererIndex, prevDenies, allows []*vrule, stillDenied func(d, n *vrule) bool) []Widening {
	var out []Widening
	for _, n := range allows {
		if n.action != policy.ActionAllow {
			continue
		}
		// Previous allows covering n's whole match set, and the effective
		// priority n's flows were allowed at (the strongest coverer).
		var allowBits weekBits
		covered := false
		effPrio := 0
		for _, p := range (indexes{ix}).coverersOf(n, nil) {
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
				Line: n.line, Stmt: n.stmt, Rule: policytext.FormatRule(*n.rule),
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
			if !d.rule.Overlaps(n.rule) || !d.bits.intersects(n.bits) {
				continue
			}
			if stillDenied(d, n) {
				continue
			}
			out = append(out, Widening{
				Line: n.line, Stmt: n.stmt, Rule: policytext.FormatRule(*n.rule), PrevLine: d.line,
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
