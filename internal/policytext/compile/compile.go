// Package compile lowers policytext documents into DFI's flat rule model
// and keeps a running system's lowered rule set incrementally up to date.
//
// The package has two layers. Compile is the pure compilation stage: it
// expands group references (transitively) and resolves role aliases once
// per statement, producing a Program of flat policy.Rule values, each
// carrying provenance back to the source statement that produced it; Lower
// is that Program filtered by temporal windows. Recompile builds the
// Program of an edited document from the one it replaces, lowering only
// the statements the edit changed. Engine (see
// engine.go) owns a live policy.Manager: it applies full documents
// atomically and, for runtime events — group membership churn, template
// instantiation, temporal window transitions — recomputes only the
// affected statements and feeds the minimal insert/revoke delta to the
// manager, so only the changed rules' cookies are flushed instead of a
// delete-and-repopulate.
package compile

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	b.Grow(len(p.Template) + len(p.Via) + 32)
	if p.Template != "" {
		b.WriteString("template ")
		b.WriteString(p.Template)
	} else {
		var num [20]byte
		b.WriteString("line ")
		b.Write(strconv.AppendInt(num[:0], int64(p.Line), 10))
	}
	if p.Via != "" {
		b.WriteString(" via ")
		b.WriteString(p.Via)
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

// Program is a policy document compiled to rules: the parsed document
// and, for each of its rule statements in document order, the statement's
// window-ungated lowering. Compile (or Recompile) builds it and nothing
// mutates it afterwards, so the engine's plan, the verifier and the admin
// API's annotations all read one value, and the engine keeps the value it
// applied as its document state.
type Program struct {
	Doc *policytext.Document
	// Stmts holds one entry per Doc.Rules statement, in the same order.
	Stmts []StmtRules
	// declErrs and stmtErrs are the compile errors, kept apart so the
	// engine reports its pdp checks between them, in document order.
	declErrs, stmtErrs policytext.ErrorList
	// lowered counts the statements this compile lowered rather than
	// reused.
	lowered int
	memo    memo
}

// Memo returns build(p), calling build once per program: analyses keep
// what they derive from a program, which never changes, with it.
func (p *Program) Memo(build func(p *Program) any) any {
	p.memo.once.Do(func() { p.memo.v = build(p) })
	return p.memo.v
}

// StmtRules is one rule statement with its lowering, regardless of the
// statement's temporal window: Lower and the engine gate on
// Window.Active, static analysis wants the rules a window contributes
// once it opens.
type StmtRules struct {
	Stmt policytext.RuleStmt
	// Template is the instance key of a template statement, "" for a
	// document statement.
	Template string
	// Key is the statement's content identity (see stmtKey).
	Key string
	// Rules is empty when the statement failed to lower.
	Rules []CompiledRule
	// low identifies the lowering Rules came from, and memoizes what
	// analyses derive from it. A statement Recompile reuses shares it with
	// the statement it was reused from, on whatever line either sits; it
	// is nil when the statement failed to lower.
	low *memo
}

// memo holds one value computed on first use.
type memo struct {
	once sync.Once
	v    any
}

// Memo returns build(st), calling build once per lowering: every statement
// that shares st's lowering — the same statement in the programs Recompile
// built from this one — gets the value computed first. build may read
// st.Key, st.Template, st.Stmt's window and each rule's Key, Rule and
// Prov.Stmt/Via, but no line or Origin: a reused statement may sit on
// another line. A statement that failed to lower calls build every time.
func (st *StmtRules) Memo(build func(st *StmtRules) any) any {
	if st.low == nil {
		return build(st)
	}
	st.low.once.Do(func() { st.low.v = build(st) })
	return st.low.v
}

// at places a lowering at rs, the same statement (same key) on its own
// line: a lowering from another line gets a copy of its rules with rs's
// line in Prov.Line and Origin.
func (st StmtRules) at(rs policytext.RuleStmt) StmtRules {
	moved := st.Stmt.Line != rs.Line
	st.Stmt = rs
	if moved && st.Template == "" {
		rules := make([]CompiledRule, len(st.Rules))
		for i, cr := range st.Rules {
			cr.Prov.Line = rs.Line
			cr.Rule.Origin = cr.Prov.String()
			rules[i] = cr
		}
		st.Rules = rules
	}
	return st
}

// Compile lowers every statement of doc once and validates every group
// declaration (unknown nested groups, cycles). It always returns the
// program; statements that fail to lower carry no rules, and Lower and
// Engine.Apply report every failure.
func Compile(doc *policytext.Document) *Program {
	return Recompile(nil, doc)
}

// Recompile compiles doc as Compile does, taking each statement's
// lowering from prev — the program doc replaces — when prev holds the
// statement (same pdp, same text or failing that the same canonical text)
// with a lowering, and doc defines every group and role the statement
// references exactly as prev's document does, through nested groups. The
// result equals Compile(doc); a one-line edit lowers at most that line,
// and a line move copies only the moved statements' rules. A nil prev
// lowers everything.
func Recompile(prev *Program, doc *policytext.Document) *Program {
	p := &Program{Doc: doc, declErrs: validateDecls(doc), Stmts: make([]StmtRules, len(doc.Rules))}
	r := newReuse(prev, doc)
	for i, rs := range doc.Rules {
		from, stmtText := r.lookup(rs)
		if from != nil && from.low != nil && r.sameRefs(rs) {
			p.Stmts[i] = from.at(rs)
			continue
		}
		if stmtText == "" {
			stmtText = policytext.FormatStmt(rs)
		}
		st, err := lowerStmt(doc, rs, stmtText, "")
		if err != nil {
			p.stmtErrs = append(p.stmtErrs, err)
		}
		p.Stmts[i] = st
		p.lowered++
	}
	return p
}

// reuse finds, for the statements of doc, the lowering prev already holds.
type reuse struct {
	prev   *Program
	doc    *policytext.Document
	byText map[textKey]int // prev statement index by (pdp, Text)
	byKey  map[string]int  // prev statement index by key, built on the first text miss
	groups map[string]bool // group name -> declared in doc exactly as in prev
	roles  map[string]bool // role name -> likewise
}

type textKey struct{ pdp, text string }

func newReuse(prev *Program, doc *policytext.Document) *reuse {
	r := &reuse{prev: prev, doc: doc}
	if prev == nil {
		return r
	}
	r.byText = make(map[textKey]int, len(prev.Stmts))
	for i := range prev.Stmts {
		rs := &prev.Stmts[i].Stmt
		if k := (textKey{rs.PDP, rs.Text}); rs.Text != "" {
			if _, dup := r.byText[k]; !dup {
				r.byText[k] = i
			}
		}
	}
	r.groups, r.roles = map[string]bool{}, map[string]bool{}
	return r
}

// lookup returns prev's statement with rs's text or, failing that, rs's
// canonical key. stmtText is rs's canonical text when lookup had to format
// it, "" otherwise.
func (r *reuse) lookup(rs policytext.RuleStmt) (from *StmtRules, stmtText string) {
	if r.prev == nil {
		return nil, ""
	}
	if rs.Text != "" {
		if i, ok := r.byText[textKey{rs.PDP, rs.Text}]; ok {
			return &r.prev.Stmts[i], ""
		}
	}
	if r.byKey == nil {
		r.byKey = make(map[string]int, len(r.prev.Stmts))
		for i := len(r.prev.Stmts) - 1; i >= 0; i-- {
			r.byKey[r.prev.Stmts[i].Key] = i // the first of duplicates wins
		}
	}
	stmtText = policytext.FormatStmt(rs)
	if i, ok := r.byKey[stmtKey(rs, stmtText, "")]; ok {
		return &r.prev.Stmts[i], stmtText
	}
	return nil, stmtText
}

// sameRefs reports whether every group and role rs references is declared
// in doc exactly as in prev's document, so rs lowers alike in both.
func (r *reuse) sameRefs(rs policytext.RuleStmt) bool {
	for _, ref := range [2]policytext.EndpointRef{rs.Src, rs.Dst} {
		if ref.Role != "" && !r.sameRole(ref.Role) {
			return false
		}
		if ref.Group != "" && !r.sameGroup(ref.Group) {
			return false
		}
	}
	return true
}

func (r *reuse) sameRole(name string) bool {
	same, ok := r.roles[name]
	if !ok {
		a, inDoc := r.doc.Role(name)
		b, inPrev := r.prev.Doc.Role(name)
		same = inDoc && inPrev && specEqual(a.Spec, b.Spec)
		r.roles[name] = same
	}
	return same
}

// sameGroup reports whether doc declares group name with the members prev
// declares, in order, and likewise for every group nested in it.
func (r *reuse) sameGroup(name string) bool {
	if same, ok := r.groups[name]; ok {
		return same
	}
	r.groups[name] = false // a membership cycle never matches: it fails to lower
	a, inDoc := r.doc.Group(name)
	b, inPrev := r.prev.Doc.Group(name)
	same := inDoc && inPrev && len(a.Members) == len(b.Members)
	for i := 0; same && i < len(a.Members); i++ {
		m, o := a.Members[i], b.Members[i]
		same = m.Group == o.Group && specEqual(m.Spec, o.Spec) && (m.Group == "" || r.sameGroup(m.Group))
	}
	r.groups[name] = same
	return same
}

func specEqual(a, b policy.EndpointSpec) bool {
	return a.User == b.User && a.Host == b.Host && ptrEqual(a.IP, b.IP) && ptrEqual(a.Port, b.Port) &&
		ptrEqual(a.MAC, b.MAC) && ptrEqual(a.SwitchPort, b.SwitchPort) && ptrEqual(a.DPID, b.DPID)
}

func ptrEqual[T comparable](a, b *T) bool {
	return a == b || (a != nil && b != nil && *a == *b)
}

// Lower compiles a document to its flat rule set as of time at: temporal
// statements contribute rules only while their window is active. Every
// statement is validated (group/role resolution, cycles, field conflicts)
// regardless of window state, and all errors are reported together as a
// policytext.ErrorList.
func Lower(doc *policytext.Document, at time.Time) ([]CompiledRule, error) {
	p := Compile(doc)
	if len(p.declErrs)+len(p.stmtErrs) > 0 {
		return nil, append(slices.Clip(p.declErrs), p.stmtErrs...)
	}
	var out []CompiledRule
	seen := map[string]bool{}
	for _, st := range p.Stmts {
		if !st.Stmt.Window.Active(at) {
			continue
		}
		for _, cr := range st.Rules {
			if seen[cr.Key] {
				continue
			}
			seen[cr.Key] = true
			out = append(out, cr)
		}
	}
	return out, nil
}

// CompileTemplate substitutes args into a template body, parses the
// resulting statements and lowers each, exactly as Engine.Instantiate
// does. A bad template name, argument count or substituted line returns
// no statements; otherwise every body statement comes back, those that
// failed to lower without rules and with their errors in the returned
// policytext.ErrorList. Static analysis calls it with placeholder
// arguments to inspect template bodies that have no live instance yet.
func CompileTemplate(doc *policytext.Document, name string, args []string) ([]StmtRules, error) {
	tmpl, ok := doc.Template(name)
	if !ok {
		return nil, policytext.ErrorList{perrf(0, "unknown template %q", name)}
	}
	if len(args) != len(tmpl.Params) {
		return nil, policytext.ErrorList{perrf(tmpl.Line,
			"template %q wants %d argument(s), got %d", name, len(tmpl.Params), len(args))}
	}
	subst := map[string]string{}
	for i, p := range tmpl.Params {
		subst["$"+p] = args[i]
	}
	var rss []policytext.RuleStmt
	var errs policytext.ErrorList
	for _, line := range tmpl.Body {
		toks := make([]string, len(line.Tokens))
		for i, t := range line.Tokens {
			if v, isParam := subst[t]; isParam {
				toks[i] = v
			} else {
				toks[i] = t
			}
		}
		rs, err := policytext.ParseRuleStmt(toks, line.Line)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		rs.PDP = tmpl.PDP
		rss = append(rss, rs)
	}
	if len(errs) > 0 {
		return nil, errs
	}
	instance := InstanceKey(name, args)
	stmts := make([]StmtRules, len(rss))
	for i, rs := range rss {
		st, err := lowerStmt(doc, rs, policytext.FormatStmt(rs), instance)
		if err != nil {
			errs = append(errs, err)
		}
		stmts[i] = st
	}
	if len(errs) > 0 {
		return stmts, errs
	}
	return stmts, nil
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

// stmtKey is the content-based identity of a statement with canonical
// text stmtText: editing one statement never churns the identity (and
// therefore the installed rules) of any other.
func stmtKey(rs policytext.RuleStmt, stmtText, tmplInstance string) string {
	if tmplInstance != "" {
		return "tmpl|" + tmplInstance + "|" + rs.PDP + "|" + stmtText
	}
	return "stmt|" + rs.PDP + "|" + stmtText
}

// lowerStmt expands one statement, whose canonical text is stmtText,
// into its rules (ignoring the window; callers gate on Window.Active): the
// single place statements become rules. The statement's cross product of
// source and destination expansions is deduplicated by key. A statement
// that fails to lower comes back with its key and no rules.
func lowerStmt(doc *policytext.Document, rs policytext.RuleStmt, stmtText, tmplInstance string) (StmtRules, *policytext.ParseError) {
	sk := stmtKey(rs, stmtText, tmplInstance)
	st := StmtRules{Stmt: rs, Template: tmplInstance, Key: sk}
	srcs, err := expandRef(doc, rs.Src, "src", rs.Line)
	if err != nil {
		return st, err
	}
	dsts, err := expandRef(doc, rs.Dst, "dst", rs.Line)
	if err != nil {
		return st, err
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
	st.Rules, st.low = out, &memo{}
	return st, nil
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

// GroupLeaves flattens a group declaration to its transitive literal
// members. Unknown nested groups and membership cycles are errors, as in
// Lower.
func GroupLeaves(doc *policytext.Document, name string) ([]policytext.Member, error) {
	leaves, err := groupLeaves(doc, name, nil, 0)
	if err != nil {
		return nil, policytext.ErrorList{err}
	}
	return leaves, nil
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
