// Package compile lowers policytext documents into DFI's flat rule model
// and keeps a running system's lowered rule set incrementally up to date.
//
// The package has two layers. Lower is the pure compilation stage: it
// expands group references (transitively), resolves role aliases, applies
// temporal windows and produces flat policy.Rule values, each carrying
// provenance back to the source statement that produced it. Engine (see
// engine.go) owns a live policy.Manager: it applies full documents
// atomically and, for runtime events — group membership churn, template
// instantiation, temporal window transitions — recomputes only the
// affected statements and feeds the minimal insert/revoke delta to the
// manager, so only the changed rules' cookies are flushed instead of a
// delete-and-repopulate.
package compile

import (
	"fmt"
	"strings"
	"time"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/policytext"
)

// Provenance records where a lowered rule came from.
type Provenance struct {
	// Line is the 1-based source line of the producing statement (the
	// template declaration's line for instantiated rules).
	Line int `json:"line"`
	// Stmt is the canonical text of the producing statement.
	Stmt string `json:"stmt"`
	// Template is the instance key ("quarantine(h7)") when the rule came
	// from a template instantiation.
	Template string `json:"template,omitempty"`
	// Via describes the group expansions that produced this particular
	// rule out of the statement's cross product.
	Via string `json:"via,omitempty"`
}

// String renders the provenance as the rule's Origin tag.
func (p Provenance) String() string {
	var b strings.Builder
	if p.Template != "" {
		fmt.Fprintf(&b, "template %s", p.Template)
	} else {
		fmt.Fprintf(&b, "line %d", p.Line)
	}
	if p.Via != "" {
		b.WriteString(" via " + p.Via)
	}
	return b.String()
}

// CompiledRule is one lowered rule with its provenance and identity key.
type CompiledRule struct {
	// Key is the rule's stable identity: a content hash of the producing
	// statement and the lowered rule text. Recompiling an unchanged
	// statement yields the same keys, which is how the engine leaves
	// untouched rules in place across recompiles.
	Key  string
	Rule policy.Rule
	Prov Provenance
}

// Delta is the rule-set difference an operation produced (or, for a dry
// run, would produce). Inserted rules carry their assigned IDs only after
// a real apply; revoked rules always carry the ID being revoked.
type Delta struct {
	Insert []policy.Rule `json:"insert,omitempty"`
	Revoke []policy.Rule `json:"revoke,omitempty"`
}

// Empty reports a no-op delta.
func (d Delta) Empty() bool { return len(d.Insert) == 0 && len(d.Revoke) == 0 }

// Lower compiles a document to its flat rule set as of time at: temporal
// statements contribute rules only while their window is active. Every
// statement is validated (group/role resolution, cycles, field conflicts)
// regardless of window state, and all errors are reported together as a
// policytext.ErrorList.
func Lower(doc *policytext.Document, at time.Time) ([]CompiledRule, error) {
	var errs policytext.ErrorList
	errs = append(errs, validateDecls(doc)...)
	var out []CompiledRule
	seen := map[string]bool{}
	for _, rs := range doc.Rules {
		crs, err := lowerStmt(doc, rs, "")
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !rs.Window.Active(at) {
			continue
		}
		for _, cr := range crs {
			if seen[cr.Key] {
				continue
			}
			seen[cr.Key] = true
			out = append(out, cr)
		}
	}
	if len(errs) > 0 {
		return nil, errs
	}
	return out, nil
}

// validateDecls checks every group declaration for unknown nested groups
// and membership cycles, so errors surface even for groups no rule
// references yet.
func validateDecls(doc *policytext.Document) policytext.ErrorList {
	var errs policytext.ErrorList
	for _, g := range doc.Groups {
		if _, err := groupLeaves(doc, g.Name, nil, g.Line); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// stmtKey is the content-based identity of a statement: editing one
// statement never churns the identity (and therefore the installed rules)
// of any other.
func stmtKey(rs policytext.RuleStmt, tmplInstance string) string {
	text := policytext.FormatStmt(rs)
	if tmplInstance != "" {
		return "tmpl|" + tmplInstance + "|" + rs.PDP + "|" + text
	}
	return "stmt|" + rs.PDP + "|" + text
}

// lowerStmt expands one statement into its rules (ignoring the window;
// callers gate on Window.Active). The statement's cross product of source
// and destination expansions is deduplicated by key.
func lowerStmt(doc *policytext.Document, rs policytext.RuleStmt, tmplInstance string) ([]CompiledRule, *policytext.ParseError) {
	sk := stmtKey(rs, tmplInstance)
	stmtText := policytext.FormatStmt(rs)
	srcs, err := expandRef(doc, rs.Src, "src", rs.Line)
	if err != nil {
		return nil, err
	}
	dsts, err := expandRef(doc, rs.Dst, "dst", rs.Line)
	if err != nil {
		return nil, err
	}
	var out []CompiledRule
	seen := map[string]bool{}
	for _, s := range srcs {
		for _, d := range dsts {
			r := policy.Rule{
				PDP:    rs.PDP,
				Action: rs.Action,
				Props:  rs.Props,
				Src:    s.spec,
				Dst:    d.spec,
			}
			prov := Provenance{
				Line:     rs.Line,
				Stmt:     stmtText,
				Template: tmplInstance,
				Via:      joinVia(s.via, d.via),
			}
			r.Origin = prov.String()
			key := sk + "|" + policytext.FormatRule(r)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, CompiledRule{Key: key, Rule: r, Prov: prov})
		}
	}
	return out, nil
}

func joinVia(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + ", " + b
	}
}

// expansion is one concrete endpoint produced by resolving a reference.
type expansion struct {
	spec policy.EndpointSpec
	via  string
}

// expandRef resolves an endpoint reference: role aliases merge into the
// literal fields; a group reference fans out to one expansion per
// (transitive) literal member. An empty group expands to nothing, so the
// statement matches no flows until members arrive.
func expandRef(doc *policytext.Document, ref policytext.EndpointRef, side string, line int) ([]expansion, *policytext.ParseError) {
	base := ref.Spec
	if ref.Role != "" {
		role, ok := doc.Role(ref.Role)
		if !ok {
			return nil, perrf(line, "unknown role %q", ref.Role)
		}
		merged, conflict := policytext.MergeSpecs(base, role.Spec)
		if conflict != "" {
			return nil, perrf(line, "role %q sets %s already set on the rule", ref.Role, conflict)
		}
		base = merged
	}
	if ref.Group == "" {
		return []expansion{{spec: base}}, nil
	}
	leaves, err := groupLeaves(doc, ref.Group, nil, line)
	if err != nil {
		return nil, err
	}
	exps := make([]expansion, 0, len(leaves))
	for _, m := range leaves {
		merged, conflict := policytext.MergeSpecs(base, m.Spec)
		if conflict != "" {
			return nil, perrf(line, "group %q member %q sets %s already set on the rule", ref.Group, m.String(), conflict)
		}
		exps = append(exps, expansion{
			spec: merged,
			via:  fmt.Sprintf("%s group %s member %q", side, ref.Group, m.String()),
		})
	}
	return exps, nil
}

// groupLeaves flattens a group to its literal members, following nested
// group references and rejecting unknown groups and cycles.
func groupLeaves(doc *policytext.Document, name string, visiting map[string]bool, line int) ([]policytext.Member, *policytext.ParseError) {
	if visiting[name] {
		return nil, perrf(line, "group membership cycle involving %q", name)
	}
	g, ok := doc.Group(name)
	if !ok {
		return nil, perrf(line, "unknown group %q", name)
	}
	if visiting == nil {
		visiting = map[string]bool{}
	}
	visiting[name] = true
	defer delete(visiting, name)
	var leaves []policytext.Member
	for _, m := range g.Members {
		if m.Group == "" {
			leaves = append(leaves, m)
			continue
		}
		nested, err := groupLeaves(doc, m.Group, visiting, line)
		if err != nil {
			return nil, err
		}
		leaves = append(leaves, nested...)
	}
	return leaves, nil
}

// stmtDeps returns the set of group names a statement's lowering depends
// on, transitively: membership churn in any of them re-lowers the
// statement, churn anywhere else leaves it untouched.
func stmtDeps(doc *policytext.Document, rs policytext.RuleStmt) map[string]bool {
	deps := map[string]bool{}
	for _, name := range []string{rs.Src.Group, rs.Dst.Group} {
		if name != "" {
			addGroupDeps(doc, name, deps)
		}
	}
	return deps
}

func addGroupDeps(doc *policytext.Document, name string, deps map[string]bool) {
	if deps[name] {
		return
	}
	deps[name] = true
	g, ok := doc.Group(name)
	if !ok {
		return
	}
	for _, m := range g.Members {
		if m.Group != "" {
			addGroupDeps(doc, m.Group, deps)
		}
	}
}

func perrf(line int, format string, args ...any) *policytext.ParseError {
	return &policytext.ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}
