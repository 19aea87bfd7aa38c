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
// atomically with per-finding source lines; warnings annotate apply/diff
// responses and dfictl output.
package verify

import (
	"fmt"
	"slices"
	"sort"

	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// Severity classifies a finding: error blocks Engine.Apply, warn annotates.
type Severity string

const (
	SevWarn  Severity = "warn"
	SevError Severity = "error"
)

// Check identifiers, one per analysis class.
const (
	CheckShadow     = "shadow"
	CheckConflict   = "conflict"
	CheckRedundant  = "redundant"
	CheckDeadWindow = "deadwindow"
	CheckStructural = "structural"
)

// Finding is one diagnostic about a policy document.
type Finding struct {
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	// Line is the 1-based source line of the flagged statement or
	// declaration (for template-body statements, the body line).
	Line int `json:"line"`
	// Stmt is the canonical text of the flagged statement ("" for
	// declaration-level findings).
	Stmt string `json:"stmt,omitempty"`
	// Template tags findings inside a template body with the placeholder
	// instance they were analyzed under, e.g. "quarantine($h)".
	Template string `json:"template,omitempty"`
	// Via is the group-expansion chain of the specific lowered rule the
	// finding is about, when the statement fans out.
	Via string `json:"via,omitempty"`
	// OtherLine is the line of the counterpart rule (the coverer for
	// shadow/conflict/redundant), 0 when there is none.
	OtherLine int    `json:"otherLine,omitempty"`
	Message   string `json:"message"`
}

// String renders the finding in the dfilint-style "line N: [check]" shape;
// callers holding a filename prefix it.
func (f Finding) String() string {
	return fmt.Sprintf("line %d: [%s] %s: %s", f.Line, f.Check, f.Severity, f.Message)
}

// Document analyzes a parsed document; see Findings.
func Document(doc *policytext.Document) []Finding {
	return Findings(compile.Compile(doc))
}

// Findings analyzes a compiled document and returns its findings sorted
// by line, then check, then counterpart line. Statements that failed to
// lower (unknown groups, cycles) contribute no findings: those are compile
// errors and Program.Err reports them.
func Findings(p *compile.Program) []Finding {
	wc := newWindowCache()
	stmts := append(slices.Clip(p.Stmts), placeholderStmts(p.Doc)...)
	var fs []Finding
	fs = append(fs, coverage(appendRules(nil, p.Doc, stmts, wc))...)
	fs = append(fs, windows(stmts, wc)...)
	fs = append(fs, structural(p.Doc)...)
	return dedupe(fs)
}

// Check gates a parsed document; see Gate.
func Check(doc *policytext.Document) error {
	return Gate(compile.Compile(doc))
}

// Gate is the Engine.SetCheck hook: it returns a policytext.ErrorList
// carrying one entry per error-severity finding (warnings pass), or nil.
// The entry lines flow into the admin API's 422 envelope unchanged.
func Gate(p *compile.Program) error {
	var errs policytext.ErrorList
	for _, f := range Findings(p) {
		if f.Severity != SevError {
			continue
		}
		errs = append(errs, &policytext.ParseError{
			Line: f.Line,
			Msg:  fmt.Sprintf("[%s] %s", f.Check, f.Message),
		})
	}
	if len(errs) > 0 {
		return errs
	}
	return nil
}

// HasErrors reports whether any finding is error-severity.
func HasErrors(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == SevError {
			return true
		}
	}
	return false
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
