// Package verify is the static semantic analyzer for policytext documents:
// the policy-level counterpart of dfilint. It runs over a compiled
// document (compile.Program: the window-ungated lowering of every
// statement) plus template bodies instantiated with placeholder arguments,
// and reasons about match-set containment with rule signatures
// (signature.go): with exact-value fields only, rule A matches everything
// rule B matches iff A constrains a subset of B's fields and B's values
// projected onto that subset equal A's key. Temporal windows are compared
// as minute-granular week bitmaps, so a rule counts as shadowed only when
// the union of its coverers' windows contains its own.
//
// Checks (Finding.Check):
//
//	shadow     — a rule fully covered by higher-priority rules; never wins.
//	             Severity error when a deny is covered by an allow (the
//	             deny is silently inert — the dangerous direction), warn
//	             for dead weight and inert allows (fail-closed).
//	conflict   — an allow fully covered by equal-priority denies: deny
//	             wins priority ties, so the allow can never win.
//	redundant  — a rule implied by a same-action rule at equal priority.
//	deadwindow — a temporal constraint that can never activate, has no
//	             effect, or leaves the rule permanently shadowed inside
//	             its window.
//	structural — empty groups, unused groups/roles, unused template
//	             parameters.
//
// Engine.Apply runs Gate as its check: error findings reject the document
// atomically with per-finding source lines; the findings come back with
// the apply's delta, so warnings annotate apply responses without a second
// analysis, and dry runs, diffs and dfictl call Findings.
//
// Each rule's signature is computed once per statement lowering and kept
// with it (compile.StmtRules.Memo), so analysing a program Recompile built
// from the running one re-derives only the edited statements' signatures.
package verify

import (
	"fmt"
	"sort"

	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// Severity classifies a finding: error blocks Engine.Apply, warn annotates.
type Severity = compile.Severity

const (
	SevWarn  = compile.SevWarn
	SevError = compile.SevError
)

// Check identifiers, one per analysis class.
const (
	CheckShadow     = "shadow"
	CheckConflict   = "conflict"
	CheckRedundant  = "redundant"
	CheckDeadWindow = "deadwindow"
	CheckStructural = "structural"
)

// Finding is one diagnostic about a policy document; the engine's gate
// hands it back with the delta, hence its home in package compile.
type Finding = compile.Finding

// Document analyzes a parsed document; see Findings.
func Document(doc *policytext.Document) []Finding {
	return Findings(compile.Compile(doc))
}

// Findings analyzes a compiled document and returns its findings sorted
// by line, then check, then counterpart line. Statements that failed to
// lower (unknown groups, cycles) contribute no findings: those are compile
// errors and Program.Err reports them.
func Findings(p *compile.Program) []Finding {
	a := analyse(p)
	tmpl := placeholderStmts(p.Doc)
	tmplRules := appendRules(nil, p.Doc, tmpl)
	ixs := indexes{a.ix, buildIndex(tmplRules)}
	fs := coverage(a.rules, ixs)
	fs = append(fs, coverage(tmplRules, ixs)...)
	wc := newWindowCache()
	fs = append(fs, windows(p.Stmts, wc)...)
	fs = append(fs, windows(tmpl, wc)...)
	fs = append(fs, structural(p.Doc)...)
	return dedupe(fs)
}

// Check gates a parsed document; see Gate.
func Check(doc *policytext.Document) error {
	_, err := Gate(compile.Compile(doc))
	return err
}

// Gate is the Engine.SetCheck hook: it returns the program's findings and
// a policytext.ErrorList carrying one entry per error-severity finding
// (warnings pass), or a nil error. The entry lines flow into the admin
// API's 422 envelope unchanged.
func Gate(p *compile.Program) ([]Finding, error) {
	fs := Findings(p)
	var errs policytext.ErrorList
	for _, f := range fs {
		if f.Severity != SevError {
			continue
		}
		errs = append(errs, &policytext.ParseError{
			Line: f.Line,
			Msg:  fmt.Sprintf("[%s] %s", f.Check, f.Message),
		})
	}
	if len(errs) > 0 {
		return fs, errs
	}
	return fs, nil
}

// dedupe collapses findings that differ only in expansion (one statement
// fanning out to many lowered rules shadowed by the same counterpart),
// keeping the first representative and the maximum severity, then sorts.
func dedupe(fs []Finding) []Finding {
	type fkey struct {
		check     string
		line      int
		otherLine int
		message   string
	}
	idx := map[fkey]int{}
	out := fs[:0]
	for _, f := range fs {
		k := fkey{f.Check, f.Line, f.OtherLine, f.Message}
		if i, seen := idx[k]; seen {
			if f.Severity == SevError {
				out[i].Severity = SevError
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.OtherLine != b.OtherLine {
			return a.OtherLine < b.OtherLine
		}
		return a.Message < b.Message
	})
	return out
}
