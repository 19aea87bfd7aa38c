package compile

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/simclock"
)

// Engine keeps a policy.Manager's rule set in sync with a policytext
// document and its runtime transformations. It retains the previous
// lowering keyed by stable content identity, so every operation — a full
// SetSource, a group-membership change, a template instantiation, a
// temporal window opening — applies only the insert/revoke delta: rules
// whose definition is unchanged keep their RuleID, so their installed flow
// rules (tagged with that id as cookie) survive the change. Each operation
// plans its whole delta first and lands it as one Manager.ApplyCtx: one
// snapshot, one epoch, one flush, and no admission ever decides against a
// half-applied change. A document apply costs what the document changed:
// statements that keep their lowering (see Recompile) keep their runtime
// state and are not revisited.
//
// All methods are safe for concurrent use.
type Engine struct {
	pm    *policy.Manager
	sched simclock.Scheduler

	mu    sync.Mutex
	check SourceCheck
	// prog is the applied document, compiled. It is replaced, never
	// mutated: Apply and Diff hand it out as the program a document
	// replaces, and a membership change builds a new one copy-on-write.
	prog  *Program
	stmts map[string]runtimeStmt // by statement key
	order []string               // statement keys, document order
	// installed maps every installed rule's key to its manager id. The
	// rule and its provenance are its statement's, in stmts.
	installed map[string]policy.RuleID
	byStmt    map[string]map[string]bool // statement key -> installed rule keys
	// stale holds statements that lost installed rules to a revoke behind
	// the engine's back; the next document apply re-plans them.
	stale map[string]bool
	// synced is a manager epoch at which installed matched the manager's
	// rules, 0 when none is known: while the manager's epoch still equals
	// it, no one else has applied since, and nothing was revoked behind
	// the engine's back.
	synced    uint64
	instances map[string]templateInstance
	timerStop func()
	timerGen  uint64
}

// runtimeStmt is a running statement: its lowering (in the program that
// placed it, or a template instance's), the groups it depends on and
// whether its window is open.
type runtimeStmt struct {
	*StmtRules
	deps   map[string]bool
	active bool
}

// want plans the statement's rules into w: its lowering while its window
// is open, none while it is closed.
func (rt runtimeStmt) want(w desired) {
	if rt.active {
		w.set(rt.Key, rt.Rules)
	} else {
		w[rt.Key] = nil
	}
}

type templateInstance struct {
	name string
	args []string
}

// NewEngine returns an engine over pm with an empty document. A nil
// scheduler defaults to the wall clock; tests inject simclock.Simulated
// to drive temporal windows deterministically.
func NewEngine(pm *policy.Manager, sched simclock.Scheduler) *Engine {
	if sched == nil {
		sched = simclock.Real{}
	}
	return &Engine{
		pm:        pm,
		sched:     sched,
		prog:      Compile(&policytext.Document{}),
		stmts:     map[string]runtimeStmt{},
		installed: map[string]policy.RuleID{},
		byStmt:    map[string]map[string]bool{},
		stale:     map[string]bool{},
		instances: map[string]templateInstance{},
	}
}

// Source returns the engine's current document in canonical textual form,
// including membership changes applied since it was loaded (template
// instances are runtime state, visible via Compiled, not document text).
func (e *Engine) Source() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return policytext.Format(e.prog.Doc)
}

// Compiled returns every installed lowered rule with provenance, sorted
// by rule ID.
func (e *Engine) Compiled() []CompiledRule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]CompiledRule, 0, len(e.installed))
	for _, sk := range e.order {
		for _, cr := range e.stmts[sk].Rules {
			id, ok := e.installed[cr.Key]
			if !ok {
				continue
			}
			cr.Rule.ID = id
			if prio, ok := e.pm.PDPPriority(cr.Rule.PDP); ok {
				cr.Rule.Priority = prio
			}
			out = append(out, cr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule.ID < out[j].Rule.ID })
	return out
}

// Instances returns the active template instance keys, sorted.
func (e *Engine) Instances() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.instances))
	for k := range e.instances {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SourceCheck is a semantic gate run by Apply on a compiled document
// before any rule is touched. It returns its findings about the program,
// which Apply hands back with the delta; a non-nil error (typically a
// policytext.ErrorList with per-finding lines) rejects the document
// atomically, exactly like a compile error. The check must be a pure
// function of the program: it runs outside the engine lock (so it may
// safely call back into the engine) and therefore before the compile-time
// checks that consult runtime state.
type SourceCheck func(p *Program) ([]Finding, error)

// Severity classifies a finding: error rejects the document, warn
// annotates it.
type Severity string

const (
	SevWarn  Severity = "warn"
	SevError Severity = "error"
)

// Finding is one diagnostic a SourceCheck reports about a program. The
// policy verifier (package verify) produces them.
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

// SetCheck installs the semantic gate applied by Apply. The system wires
// the policy verifier here; Diff is deliberately ungated so dry runs and
// diffs still compute deltas for documents the gate would reject.
func (e *Engine) SetCheck(check SourceCheck) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.check = check
}

// SetSource parses, compiles and applies a full policy document; see
// Parse, Compile and Apply.
func (e *Engine) SetSource(src string) (Delta, error) {
	doc, err := e.Parse(src)
	if err != nil {
		return Delta{}, err
	}
	d, _, _, err := e.Apply(e.Compile(doc))
	return d, err
}

// Parse parses src against the running document (see
// policytext.ParseAgainst), so only the lines src changed are tokenized
// and parsed. Like Compile, it reads the running document under the lock
// and parses outside it.
func (e *Engine) Parse(src string) (*policytext.Document, error) {
	e.mu.Lock()
	prev := e.prog.Doc
	e.mu.Unlock()
	return policytext.ParseAgainst(strings.NewReader(src), prev)
}

// Compile compiles doc against the running program (see Recompile), so
// only the statements doc changed are lowered. The program is read under
// the lock and compiled outside it; if another document is applied in
// between, the result is still exact, only less of it is reused.
func (e *Engine) Compile(doc *policytext.Document) *Program {
	e.mu.Lock()
	prev := e.prog
	e.mu.Unlock()
	return Recompile(prev, doc)
}

// Apply validates and applies a compiled document atomically and returns
// the delta, the program it replaced and the gate's findings: on any gate
// or compile error (returned as a policytext.ErrorList) nothing is
// changed. On success only the delta against the previous lowering is
// applied — unchanged rules keep their IDs — and active template instances
// are re-instantiated against the new document (instances whose template
// vanished or no longer compiles are dropped). The engine keeps p as its
// document state.
func (e *Engine) Apply(p *Program) (Delta, *Program, []Finding, error) {
	e.mu.Lock()
	check := e.check
	e.mu.Unlock()
	var findings []Finding
	if check != nil {
		var err error
		if findings, err = check(p); err != nil {
			return Delta{}, nil, nil, err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ps, err := e.plan(p)
	if err != nil {
		return Delta{}, nil, nil, err
	}
	prev := e.prog
	d, err := e.applyPlan(ps)
	if err != nil {
		return Delta{}, nil, nil, err
	}
	return d, prev, findings, nil
}

// Diff returns the delta applying a compiled document would produce and
// the program it would replace, without changing the policy. Inserted
// rules carry no IDs (none are assigned); revoked rules carry the IDs that
// would be revoked.
func (e *Engine) Diff(p *Program) (Delta, *Program, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ps, err := e.plan(p)
	if err != nil {
		return Delta{}, nil, err
	}
	inserts, revokes := e.deltaLocked(e.documentWant(ps))
	d := Delta{Revoke: e.storedLocked(revokes)}
	for _, cr := range inserts {
		d.Insert = append(d.Insert, cr.Rule)
	}
	sortDelta(&d)
	return d, e.prog, nil
}

// plannedState is a fully validated compilation of a proposed document.
type plannedState struct {
	prog  *Program
	stmts map[string]runtimeStmt
	order []string
	// touched lists the statements whose rules the engine does not run
	// yet: new statements and statements lowered anew. removed lists the
	// running statements the document drops, and moved the running ones it
	// keeps on another line, whose rules the manager must relabel.
	touched, removed, moved []string
	// windowed is set when a touched or removed statement has a temporal
	// window, so the window timer needs re-arming.
	windowed  bool
	instances map[string]templateInstance
}

// plan validates prog against the engine's runtime state and lays out the
// statements swapping onto it would run. It lowers nothing of the
// document: every statement's rules come from prog.
func (e *Engine) plan(prog *Program) (*plannedState, error) {
	doc := prog.Doc
	now := e.sched.Now()
	errs := append(policytext.ErrorList{}, prog.declErrs...)
	for _, decl := range doc.PDPs {
		if prio, ok := e.pm.PDPPriority(decl.Name); ok && prio != decl.Priority {
			errs = append(errs, perrf(decl.Line,
				"pdp %q already registered with priority %d (cannot change to %d)", decl.Name, prio, decl.Priority))
		}
	}
	if errs = append(errs, prog.stmtErrs...); len(errs) > 0 {
		return nil, errs
	}
	p := &plannedState{
		prog:      prog,
		stmts:     make(map[string]runtimeStmt, len(prog.Stmts)),
		order:     make([]string, 0, len(prog.Stmts)),
		instances: map[string]templateInstance{},
	}
	for i := range prog.Stmts {
		e.planStmt(p, &prog.Stmts[i], now)
	}
	// Re-instantiate retained template instances against the new document;
	// instances that no longer fit are dropped rather than blocking apply.
	for key, inst := range e.instances {
		stmts, err := CompileTemplate(doc, inst.name, inst.args)
		if err != nil {
			continue
		}
		p.instances[key] = inst
		for i := range stmts {
			e.planStmt(p, &stmts[i], now)
		}
	}
	for _, sk := range e.order {
		if _, kept := p.stmts[sk]; !kept {
			p.removed = append(p.removed, sk)
			p.windowed = p.windowed || !e.stmts[sk].Stmt.Window.IsZero()
		}
	}
	return p, nil
}

// planStmt lays out one statement of a planned state. A statement the
// engine runs with the same lowering keeps its dependencies, window state
// and installed rules, whatever line it moved to — unless its window
// opened or closed and the timer has yet to apply that. Any other
// statement is touched.
func (e *Engine) planStmt(p *plannedState, st *StmtRules, now time.Time) {
	if _, dup := p.stmts[st.Key]; dup {
		return // identical duplicate statement: unify
	}
	rt, running := e.stmts[st.Key]
	if running && rt.low != nil && rt.low == st.low && (st.Stmt.Window.IsZero() || rt.active == st.Stmt.Window.Active(now)) {
		if rt.Stmt.Line != st.Stmt.Line {
			p.moved = append(p.moved, st.Key)
		}
		rt.StmtRules = st
	} else {
		rt = runtimeStmt{StmtRules: st, deps: stmtDeps(p.prog.Doc, st.Stmt), active: st.Stmt.Window.Active(now)}
		p.touched = append(p.touched, st.Key)
		p.windowed = p.windowed || !st.Stmt.Window.IsZero()
	}
	p.stmts[st.Key] = rt
	p.order = append(p.order, st.Key)
}

// applyPlan swaps the engine onto a planned state, applying the rule
// delta through the manager as one apply. PDP registration happens first
// and is additive; the apply only starts once every new PDP registered
// cleanly.
func (e *Engine) applyPlan(p *plannedState) (Delta, error) {
	for _, decl := range p.prog.Doc.PDPs {
		if _, ok := e.pm.PDPPriority(decl.Name); ok {
			continue // same priority, verified by plan
		}
		if err := e.pm.RegisterPDP(decl.Name, decl.Priority); err != nil {
			return Delta{}, policytext.ErrorList{perrf(decl.Line, "register pdp %q: %v", decl.Name, err)}
		}
	}
	d, err := e.commitLocked(obs.SpanContext{}, e.documentWant(p))
	if err != nil {
		return Delta{}, err
	}
	e.prog = p.prog
	e.stmts = p.stmts
	e.order = p.order
	e.instances = p.instances
	for sk := range e.stale {
		if _, kept := e.stmts[sk]; !kept {
			delete(e.stale, sk)
		}
	}
	if p.windowed {
		e.rearmTimerLocked()
	}
	return d, nil
}

// stmtOf recovers the statement key prefix from a rule key (the rule key
// is stmtKey + "|" + lowered rule text).
func stmtOf(ruleKey string) string {
	if i := strings.LastIndex(ruleKey, "|"); i >= 0 {
		return ruleKey[:i]
	}
	return ruleKey
}

// desired is one engine mutation's plan: for every statement the mutation
// touches, the rules that statement should have installed afterwards,
// keyed by rule key. A touched statement with no rules maps to nil.
type desired map[string]map[string]CompiledRule

// set makes statement sk want exactly crs.
func (w desired) set(sk string, crs []CompiledRule) {
	w[sk] = make(map[string]CompiledRule, len(crs))
	for _, cr := range crs {
		w[sk][cr.Key] = cr
	}
}

// documentWant is the plan for swapping onto p: statements p dropped lose
// their rules, touched statements and stale ones (which lost rules behind
// the engine's back) get p's, and moved ones want what they have, under
// their new provenance. Every other statement keeps what it has installed.
func (e *Engine) documentWant(p *plannedState) desired {
	e.forgetRevokedLocked()
	want := make(desired, len(p.removed)+len(p.touched)+len(p.moved)+len(e.stale))
	for _, sk := range p.removed {
		want[sk] = nil
	}
	for _, sk := range p.touched {
		p.stmts[sk].want(want)
	}
	for _, sk := range p.moved {
		p.stmts[sk].want(want)
	}
	for sk := range e.stale {
		if rt, ok := p.stmts[sk]; ok {
			rt.want(want)
		}
	}
	return want
}

// deltaLocked splits want into the rules to insert and the installed rule
// keys to revoke, each in key order so id assignment is deterministic. It
// first forgets rules revoked behind the engine's back.
func (e *Engine) deltaLocked(want desired) (inserts []CompiledRule, revokes []string) {
	e.forgetRevokedLocked()
	for sk, rules := range want {
		for key, cr := range rules {
			if !e.byStmt[sk][key] {
				inserts = append(inserts, cr)
			}
		}
		for key := range e.byStmt[sk] {
			if _, keep := rules[key]; !keep {
				revokes = append(revokes, key)
			}
		}
	}
	sort.Slice(inserts, func(i, j int) bool { return inserts[i].Key < inserts[j].Key })
	sort.Strings(revokes)
	return inserts, revokes
}

// commitLocked turns want into one Manager.ApplyCtx: every rule a touched
// statement newly wants is inserted, every installed rule it no longer
// wants is revoked and every installed rule it keeps under another Origin
// is relabeled, in one snapshot, one epoch and one flush. The installed
// set changes only once the manager accepted the apply; a rejected apply
// returns its error with the engine as it was.
func (e *Engine) commitLocked(sc obs.SpanContext, want desired) (Delta, error) {
	inserts, revokes := e.deltaLocked(want)
	relabels := e.relabelsLocked(want)
	d := Delta{Revoke: e.storedLocked(revokes)}
	var ids []policy.RuleID
	if len(inserts)+len(revokes)+len(relabels) > 0 {
		insertRules := make([]policy.Rule, len(inserts))
		for i, cr := range inserts {
			insertRules[i] = cr.Rule
		}
		revokeIDs := make([]policy.RuleID, len(revokes))
		for i, key := range revokes {
			revokeIDs[i] = e.installed[key]
		}
		var (
			epoch uint64
			err   error
		)
		ids, epoch, err = e.pm.ApplyCtx(sc, insertRules, revokeIDs, relabels...)
		if err != nil {
			e.synced = 0
			return Delta{}, policytext.ErrorList{perrf(0, "apply policy delta: %v", err)}
		}
		// The epoch right after the one installed was checked against means
		// no one else applied in between.
		if e.synced != 0 && epoch == e.synced+1 {
			e.synced = epoch
		} else {
			e.synced = 0
		}
	}
	for _, key := range revokes {
		e.forgetLocked(key)
	}
	for i, cr := range inserts {
		e.installed[cr.Key] = ids[i]
		sk := stmtOf(cr.Key)
		if e.byStmt[sk] == nil {
			e.byStmt[sk] = map[string]bool{}
		}
		e.byStmt[sk][cr.Key] = true
		d.Insert = append(d.Insert, cr.Rule)
		d.Insert[i].ID = ids[i]
	}
	for sk := range want {
		delete(e.stale, sk)
	}
	sortDelta(&d)
	return d, nil
}

// relabelsLocked returns, for every installed rule want keeps, a relabel
// to the Origin want gives it when the manager holds another one: the
// manager's rules name the lines the engine's compiled view names.
func (e *Engine) relabelsLocked(want desired) []policy.Relabel {
	snap := e.pm.Snapshot()
	var out []policy.Relabel
	for _, rules := range want {
		for key, cr := range rules {
			id, ok := e.installed[key]
			if !ok {
				continue
			}
			if r := snap.Get(id); r != nil && r.Origin != cr.Rule.Origin {
				out = append(out, policy.Relabel{ID: id, Origin: cr.Rule.Origin})
			}
		}
	}
	return out
}

// storedLocked returns the installed rules named by keys as the manager
// holds them, id included, with their statements' current provenance.
func (e *Engine) storedLocked(keys []string) []policy.Rule {
	if len(keys) == 0 {
		return nil
	}
	named := make(map[string]bool, len(keys))
	for _, key := range keys {
		named[key] = true
	}
	out := make([]policy.Rule, 0, len(keys))
	for _, key := range keys {
		rt, ok := e.stmts[stmtOf(key)]
		if !ok || !named[key] {
			continue // a statement already read
		}
		for _, cr := range rt.Rules {
			if named[cr.Key] {
				delete(named, cr.Key)
				cr.Rule.ID = e.installed[cr.Key]
				out = append(out, cr.Rule)
			}
		}
	}
	return out
}

// forgetRevokedLocked drops installed rules that an in-process caller
// revoked behind the engine's back (Manager.Revoke on an engine-owned id)
// and marks their statements stale. Kept, such an id would reject every
// later apply that revokes it, and SetSource would never re-insert a rule
// its document still asks for. While the manager's epoch is still the one
// installed was last checked against, there is nothing to probe.
func (e *Engine) forgetRevokedLocked() {
	snap := e.pm.Snapshot()
	if e.synced != 0 && snap.Epoch() == e.synced {
		return
	}
	for key, id := range e.installed {
		if snap.Get(id) == nil {
			e.forgetLocked(key)
			e.stale[stmtOf(key)] = true
		}
	}
	e.synced = snap.Epoch()
}

func (e *Engine) forgetLocked(key string) {
	delete(e.installed, key)
	sk := stmtOf(key)
	if delete(e.byStmt[sk], key); len(e.byStmt[sk]) == 0 {
		delete(e.byStmt, sk)
	}
}

// AddMember adds a member (in group-member syntax, e.g. "user mallory" or
// "group contractors") to a named group and applies the resulting rule
// delta: only statements whose expansion depends on the group are
// re-lowered. Adding a member already present is a no-op.
func (e *Engine) AddMember(group, memberText string) (Delta, error) {
	return e.changeMember(group, memberText, true)
}

// RemoveMember removes a member from a named group; the inverse of
// AddMember, and likewise a no-op when the member is absent.
func (e *Engine) RemoveMember(group, memberText string) (Delta, error) {
	return e.changeMember(group, memberText, false)
}

func (e *Engine) changeMember(group, memberText string, add bool) (Delta, error) {
	member, err := policytext.ParseMember(memberText)
	if err != nil {
		return Delta{}, policytext.AsErrorList(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.prog.Doc
	gi := slices.IndexFunc(old.Groups, func(g policytext.GroupDecl) bool { return g.Name == group })
	if gi < 0 {
		return Delta{}, policytext.ErrorList{perrf(0, "unknown group %q", group)}
	}
	members := old.Groups[gi].Members
	id := member.String()
	mi := slices.IndexFunc(members, func(m policytext.Member) bool { return m.String() == id })
	if add == (mi >= 0) {
		return Delta{}, nil // already present / already absent
	}
	// Copy on write: the running program may be held by a caller.
	doc := *old
	doc.Groups = slices.Clone(old.Groups)
	if add {
		doc.Groups[gi].Members = append(slices.Clip(members), member)
	} else {
		doc.Groups[gi].Members = slices.Delete(slices.Clone(members), mi, mi+1)
	}
	// Adding a nested group reference can introduce unknown groups or
	// cycles; validate before touching any rules.
	if member.Group != "" {
		if _, verr := groupLeaves(&doc, group, nil, 0); verr != nil {
			return Delta{}, policytext.ErrorList{verr}
		}
	}
	return e.recomputeDependents(&doc, group)
}

// recomputeDependents re-lowers every statement whose dependency set
// contains the changed group against doc, the running document with that
// group's new membership, and applies the combined delta as one apply.
// Lowering of all affected statements is validated before any rule is
// touched, so a bad membership change rejects cleanly. On success the
// engine swaps onto a new program over doc.
func (e *Engine) recomputeDependents(doc *policytext.Document, changed string) (Delta, error) {
	want := desired{}
	relowered := map[string]*StmtRules{} // statement key -> new lowering
	for _, key := range e.order {
		st := e.stmts[key]
		if !st.deps[changed] {
			continue
		}
		sr, err := lowerStmt(doc, st.Stmt, policytext.FormatStmt(st.Stmt), st.Template)
		if err != nil {
			return Delta{}, policytext.ErrorList{err}
		}
		relowered[key] = &sr
		if st.active {
			want.set(key, sr.Rules)
		} else {
			want[key] = nil
		}
	}
	d, err := e.commitLocked(obs.SpanContext{}, want)
	if err != nil {
		return Delta{}, err
	}
	prog := &Program{Doc: doc, Stmts: slices.Clone(e.prog.Stmts)}
	for i, st := range prog.Stmts {
		if sr, ok := relowered[st.Key]; ok {
			prog.Stmts[i] = sr.at(st.Stmt)
		}
	}
	e.prog = prog
	for key, sr := range relowered {
		st := e.stmts[key]
		st.StmtRules, st.deps = sr, stmtDeps(doc, sr.Stmt)
		e.stmts[key] = st
	}
	return d, nil
}

// InstanceKey renders a template instance identity, e.g. "quarantine(h7)".
func InstanceKey(name string, args []string) string {
	return name + "(" + strings.Join(args, ",") + ")"
}

// Instantiate applies a template with the given arguments, inserting every
// rule its body lowers to in one apply, so no admission sees half an
// instance. sc parents the apply's span (the compromise event's publish
// span, when a sensor drives it). Instantiating an already-active instance
// is a no-op. The instance stays active until Retract (or until a
// SetSource whose document no longer carries a compatible template).
func (e *Engine) Instantiate(sc obs.SpanContext, name string, args ...string) (Delta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := InstanceKey(name, args)
	if _, active := e.instances[key]; active {
		return Delta{}, nil
	}
	doc := e.prog.Doc
	stmts, err := CompileTemplate(doc, name, args)
	if err != nil {
		return Delta{}, policytext.AsErrorList(err)
	}
	now := e.sched.Now()
	want := desired{}
	var added []runtimeStmt
	windowed := false
	for i, s := range stmts {
		if _, dup := want[s.Key]; dup {
			continue // identical duplicate line in the template body
		}
		st := runtimeStmt{StmtRules: &stmts[i], deps: stmtDeps(doc, s.Stmt), active: s.Stmt.Window.Active(now)}
		added = append(added, st)
		crs := st.Rules
		if !st.active {
			crs = nil
		}
		want.set(s.Key, crs)
		windowed = windowed || !s.Stmt.Window.IsZero()
	}
	d, err := e.commitLocked(sc, want)
	if err != nil {
		return Delta{}, err
	}
	for _, st := range added {
		e.stmts[st.Key] = st
		e.order = append(e.order, st.Key)
	}
	e.instances[key] = templateInstance{name: name, args: args}
	if windowed {
		e.rearmTimerLocked()
	}
	return d, nil
}

// Retract removes a template instance, revoking the rules it inserted in
// one apply; sc parents the apply's span. Retracting an inactive instance
// is a no-op.
func (e *Engine) Retract(sc obs.SpanContext, name string, args ...string) (Delta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := InstanceKey(name, args)
	if _, active := e.instances[key]; !active {
		return Delta{}, nil
	}
	want := desired{}
	for _, sk := range e.order {
		if e.stmts[sk].Template == key {
			want[sk] = nil
		}
	}
	d, err := e.commitLocked(sc, want)
	if err != nil {
		return Delta{}, err
	}
	keep := e.order[:0]
	windowed := false
	for _, sk := range e.order {
		if _, gone := want[sk]; gone {
			windowed = windowed || !e.stmts[sk].Stmt.Window.IsZero()
			delete(e.stmts, sk)
		} else {
			keep = append(keep, sk)
		}
	}
	e.order = keep
	delete(e.instances, key)
	if windowed {
		e.rearmTimerLocked()
	}
	return d, nil
}

// rearmTimerLocked points a single scheduler timer at the earliest
// upcoming window transition across all statements. A generation counter
// invalidates timers from superseded arrangements.
func (e *Engine) rearmTimerLocked() {
	if e.timerStop != nil {
		e.timerStop()
		e.timerStop = nil
	}
	e.timerGen++
	now := e.sched.Now()
	var next time.Time
	for _, sk := range e.order {
		st := e.stmts[sk]
		if st.Stmt.Window.IsZero() {
			continue
		}
		at, ok := st.Stmt.Window.NextTransition(now)
		if ok && (next.IsZero() || at.Before(next)) {
			next = at
		}
	}
	if next.IsZero() {
		return
	}
	gen := e.timerGen
	e.timerStop = e.sched.AfterFunc(next.Sub(now), func() { e.onWindowTimer(gen) })
}

// onWindowTimer re-evaluates every windowed statement's active state,
// applies the deltas of those that flipped as one apply, then re-arms. A
// rejected apply (an engine-owned id revoked concurrently behind its back)
// leaves every statement as it was.
func (e *Engine) onWindowTimer(gen uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if gen != e.timerGen {
		return
	}
	now := e.sched.Now()
	want := desired{}
	var flipped []string
	for _, sk := range e.order {
		st := e.stmts[sk]
		if st.Stmt.Window.IsZero() || st.Stmt.Window.Active(now) == st.active {
			continue
		}
		var crs []CompiledRule
		if !st.active {
			crs = st.Rules
		}
		want.set(sk, crs)
		flipped = append(flipped, sk)
	}
	if _, err := e.commitLocked(obs.SpanContext{}, want); err == nil {
		for _, sk := range flipped {
			st := e.stmts[sk]
			st.active = !st.active
			e.stmts[sk] = st
		}
	}
	e.rearmTimerLocked()
}

func sortDelta(d *Delta) {
	byText := func(rs []policy.Rule) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := rs[i], rs[j]
			if a.PDP != b.PDP {
				return a.PDP < b.PDP
			}
			return fmt.Sprint(a.Action, policytext.FormatRule(a)) < fmt.Sprint(b.Action, policytext.FormatRule(b))
		}
	}
	sort.Slice(d.Insert, byText(d.Insert))
	sort.Slice(d.Revoke, byText(d.Revoke))
}
