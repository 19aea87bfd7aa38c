package compile

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/simclock"
)

// Engine keeps a policy.Manager's rule set in sync with a policytext
// document and its runtime transformations. It retains the previous
// lowering keyed by stable content identity, so every operation — a full
// SetSource, a group-membership change, a template instantiation, a
// temporal window opening — applies only the insert/revoke delta: rules
// whose definition is unchanged keep their RuleID, so their installed flow
// rules (tagged with that id as cookie) survive the change.
//
// All methods are safe for concurrent use.
type Engine struct {
	pm    *policy.Manager
	sched simclock.Scheduler

	mu        sync.Mutex
	check     SourceCheck
	doc       *policytext.Document
	stmts     map[string]*runtimeStmt // by statement key
	order     []string                // statement keys, document order
	installed map[string]installedRule
	byStmt    map[string]map[string]bool // statement key -> installed rule keys
	instances map[string]templateInstance
	timerStop func()
	timerGen  uint64
}

type runtimeStmt struct {
	key    string
	rs     policytext.RuleStmt
	tmpl   string // instance key, "" for document statements
	deps   map[string]bool
	active bool
}

type installedRule struct {
	id      policy.RuleID
	rule    policy.Rule
	prov    Provenance
	stmtKey string
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
		doc:       &policytext.Document{},
		stmts:     map[string]*runtimeStmt{},
		installed: map[string]installedRule{},
		byStmt:    map[string]map[string]bool{},
		instances: map[string]templateInstance{},
	}
}

// Source returns the engine's current document in canonical textual form,
// including membership changes applied since it was loaded (template
// instances are runtime state, visible via Compiled, not document text).
func (e *Engine) Source() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return policytext.Format(e.doc)
}

// Compiled returns every installed lowered rule with provenance, sorted
// by rule ID.
func (e *Engine) Compiled() []CompiledRule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]CompiledRule, 0, len(e.installed))
	for key, inst := range e.installed {
		r := inst.rule
		r.ID = inst.id
		if prio, ok := e.pm.PDPPriority(r.PDP); ok {
			r.Priority = prio
		}
		out = append(out, CompiledRule{Key: key, Rule: r, Prov: inst.prov})
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

// SourceCheck is a semantic gate run by SetSource after a document parses
// but before any rule is touched. A non-nil error (typically a
// policytext.ErrorList with per-finding lines) rejects the document
// atomically, exactly like a compile error. The check must be a pure
// function of the document: it runs outside the engine lock (so it may
// safely call back into the engine) and therefore before the compile-time
// checks that consult runtime state.
type SourceCheck func(doc *policytext.Document) error

// SetCheck installs the semantic gate applied by SetSource. The system
// wires the policy verifier here; Diff is deliberately ungated so dry runs
// and diffs still compute deltas for documents the gate would reject.
func (e *Engine) SetCheck(check SourceCheck) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.check = check
}

// SetSource parses, validates and applies a full policy document
// atomically: on any parse or compile error (returned as a
// policytext.ErrorList) nothing is changed. On success only the delta
// against the previous lowering is applied — unchanged rules keep their
// IDs — and active template instances are re-instantiated against the new
// document (instances whose template vanished or no longer compiles are
// dropped).
func (e *Engine) SetSource(src string) (Delta, error) {
	e.mu.Lock()
	check := e.check
	e.mu.Unlock()
	if check != nil {
		doc, err := policytext.Parse(strings.NewReader(src))
		if err != nil {
			return Delta{}, err
		}
		if err := check(doc); err != nil {
			return Delta{}, err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, err := e.plan(src)
	if err != nil {
		return Delta{}, err
	}
	return e.applyPlan(p)
}

// Diff compiles a proposed document and returns the delta applying it
// would produce, without changing anything. Inserted rules carry no IDs
// (none are assigned); revoked rules carry the IDs that would be revoked.
func (e *Engine) Diff(src string) (Delta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, err := e.plan(src)
	if err != nil {
		return Delta{}, err
	}
	var d Delta
	for key, inst := range e.installed {
		if _, keep := p.rules[key]; !keep {
			r := inst.rule
			r.ID = inst.id
			d.Revoke = append(d.Revoke, r)
		}
	}
	for key, cr := range p.rules {
		if _, have := e.installed[key]; !have {
			d.Insert = append(d.Insert, cr.Rule)
		}
	}
	sortDelta(&d)
	return d, nil
}

// plannedState is a fully validated compilation of a proposed document.
type plannedState struct {
	doc       *policytext.Document
	stmts     map[string]*runtimeStmt
	order     []string
	rules     map[string]CompiledRule // desired installed set
	instances map[string]templateInstance
}

func (e *Engine) plan(src string) (*plannedState, error) {
	doc, err := policytext.Parse(strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	now := e.sched.Now()
	var errs policytext.ErrorList
	errs = append(errs, validateDecls(doc)...)
	for _, decl := range doc.PDPs {
		if prio, ok := e.pm.PDPPriority(decl.Name); ok && prio != decl.Priority {
			errs = append(errs, perrf(decl.Line,
				"pdp %q already registered with priority %d (cannot change to %d)", decl.Name, prio, decl.Priority))
		}
	}
	p := &plannedState{
		doc:       doc,
		stmts:     map[string]*runtimeStmt{},
		rules:     map[string]CompiledRule{},
		instances: map[string]templateInstance{},
	}
	addStmt := func(rs policytext.RuleStmt, tmpl string) *policytext.ParseError {
		crs, err := lowerStmt(doc, rs, tmpl)
		if err != nil {
			return err
		}
		key := stmtKey(rs, tmpl)
		if _, dup := p.stmts[key]; dup {
			return nil // identical duplicate statement: unify
		}
		st := &runtimeStmt{key: key, rs: rs, tmpl: tmpl, deps: stmtDeps(doc, rs), active: rs.Window.Active(now)}
		p.stmts[key] = st
		p.order = append(p.order, key)
		if st.active {
			for _, cr := range crs {
				p.rules[cr.Key] = cr
			}
		}
		return nil
	}
	for _, rs := range doc.Rules {
		if err := addStmt(rs, ""); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return nil, errs
	}
	// Re-instantiate retained template instances against the new document;
	// instances that no longer fit are dropped rather than blocking apply.
	for key, inst := range e.instances {
		stmts, err := instantiateStmts(doc, inst.name, inst.args)
		if err != nil {
			continue
		}
		p.instances[key] = inst
		for _, rs := range stmts {
			if err := addStmt(rs, key); err != nil {
				delete(p.instances, key)
				break
			}
		}
	}
	return p, nil
}

// applyPlan swaps the engine onto a planned state, applying the rule
// delta through the manager. PDP registration happens first and is
// additive; rule mutations only start once every new PDP registered
// cleanly.
func (e *Engine) applyPlan(p *plannedState) (Delta, error) {
	for _, decl := range p.doc.PDPs {
		if _, ok := e.pm.PDPPriority(decl.Name); ok {
			continue // same priority, verified by plan
		}
		if err := e.pm.RegisterPDP(decl.Name, decl.Priority); err != nil {
			return Delta{}, policytext.ErrorList{perrf(decl.Line, "register pdp %q: %v", decl.Name, err)}
		}
	}
	var insertKeys, revokeKeys []string
	for key := range p.rules {
		if _, have := e.installed[key]; !have {
			insertKeys = append(insertKeys, key)
		}
	}
	for key := range e.installed {
		if _, keep := p.rules[key]; !keep {
			revokeKeys = append(revokeKeys, key)
		}
	}
	sort.Strings(insertKeys)
	sort.Strings(revokeKeys)

	var d Delta
	installed := make(map[string]installedRule, len(p.rules))
	for key, inst := range e.installed {
		if _, keep := p.rules[key]; keep {
			// Unchanged definition: the rule stays in place, ID intact, but
			// adopt the new plan's provenance/statement association.
			cr := p.rules[key]
			installed[key] = installedRule{id: inst.id, rule: cr.Rule, prov: cr.Prov, stmtKey: stmtOf(key)}
		}
	}
	for _, key := range insertKeys {
		cr := p.rules[key]
		id, err := e.pm.Insert(cr.Rule)
		if err != nil {
			// Unreachable in practice (PDPs are registered above); surface
			// rather than silently losing the rule.
			return d, policytext.ErrorList{perrf(cr.Prov.Line, "insert rule: %v", err)}
		}
		r := cr.Rule
		r.ID = id
		installed[key] = installedRule{id: id, rule: cr.Rule, prov: cr.Prov, stmtKey: stmtOf(key)}
		d.Insert = append(d.Insert, r)
	}
	for _, key := range revokeKeys {
		inst := e.installed[key]
		if err := e.pm.Revoke(inst.id); err == nil {
			r := inst.rule
			r.ID = inst.id
			d.Revoke = append(d.Revoke, r)
		}
	}

	e.doc = p.doc
	e.stmts = p.stmts
	e.order = p.order
	e.instances = p.instances
	e.installed = installed
	e.rebuildByStmt()
	e.rearmTimerLocked()
	sortDelta(&d)
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

func (e *Engine) rebuildByStmt() {
	e.byStmt = map[string]map[string]bool{}
	for key, inst := range e.installed {
		set := e.byStmt[inst.stmtKey]
		if set == nil {
			set = map[string]bool{}
			e.byStmt[inst.stmtKey] = set
		}
		set[key] = true
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
	gi := -1
	for i := range e.doc.Groups {
		if e.doc.Groups[i].Name == group {
			gi = i
			break
		}
	}
	if gi < 0 {
		return Delta{}, policytext.ErrorList{perrf(0, "unknown group %q", group)}
	}
	g := &e.doc.Groups[gi]
	id := member.String()
	mi := -1
	for i, m := range g.Members {
		if m.String() == id {
			mi = i
			break
		}
	}
	if add == (mi >= 0) {
		return Delta{}, nil // already present / already absent
	}
	saved := append([]policytext.Member(nil), g.Members...)
	if add {
		g.Members = append(g.Members, member)
	} else {
		g.Members = append(g.Members[:mi:mi], g.Members[mi+1:]...)
	}
	// Adding a nested group reference can introduce unknown groups or
	// cycles; validate before touching any rules.
	if member.Group != "" {
		if _, verr := groupLeaves(e.doc, group, nil, 0); verr != nil {
			g.Members = saved
			return Delta{}, policytext.ErrorList{verr}
		}
	}
	d, aerr := e.recomputeDependents(map[string]bool{group: true})
	if aerr != nil {
		g.Members = saved
		return Delta{}, aerr
	}
	return d, nil
}

// recomputeDependents re-lowers every statement whose dependency set
// intersects changed and applies the per-statement deltas. Lowering of
// all affected statements is validated before any rule is touched, so a
// bad membership change rejects cleanly.
func (e *Engine) recomputeDependents(changed map[string]bool) (Delta, error) {
	type relowered struct {
		st  *runtimeStmt
		crs []CompiledRule
	}
	var affected []relowered
	for _, key := range e.order {
		st := e.stmts[key]
		hit := false
		for g := range changed {
			if st.deps[g] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		crs, err := lowerStmt(e.doc, st.rs, st.tmpl)
		if err != nil {
			return Delta{}, policytext.ErrorList{err}
		}
		affected = append(affected, relowered{st: st, crs: crs})
	}
	var d Delta
	for _, a := range affected {
		a.st.deps = stmtDeps(e.doc, a.st.rs)
		desired := map[string]CompiledRule{}
		if a.st.active {
			for _, cr := range a.crs {
				desired[cr.Key] = cr
			}
		}
		e.applyStmtDelta(a.st.key, desired, &d)
	}
	sortDelta(&d)
	return d, nil
}

// applyStmtDelta reconciles one statement's installed rules with the
// desired set, appending what changed to d.
func (e *Engine) applyStmtDelta(stmtKey string, desired map[string]CompiledRule, d *Delta) {
	have := e.byStmt[stmtKey]
	var insertKeys, revokeKeys []string
	for key := range desired {
		if !have[key] {
			insertKeys = append(insertKeys, key)
		}
	}
	for key := range have {
		if _, keep := desired[key]; !keep {
			revokeKeys = append(revokeKeys, key)
		}
	}
	sort.Strings(insertKeys)
	sort.Strings(revokeKeys)
	for _, key := range insertKeys {
		cr := desired[key]
		id, err := e.pm.Insert(cr.Rule)
		if err != nil {
			continue
		}
		e.installed[key] = installedRule{id: id, rule: cr.Rule, prov: cr.Prov, stmtKey: stmtKey}
		if e.byStmt[stmtKey] == nil {
			e.byStmt[stmtKey] = map[string]bool{}
		}
		e.byStmt[stmtKey][key] = true
		r := cr.Rule
		r.ID = id
		d.Insert = append(d.Insert, r)
	}
	for _, key := range revokeKeys {
		inst := e.installed[key]
		if err := e.pm.Revoke(inst.id); err == nil {
			r := inst.rule
			r.ID = inst.id
			d.Revoke = append(d.Revoke, r)
		}
		delete(e.installed, key)
		delete(e.byStmt[stmtKey], key)
	}
}

// InstanceKey renders a template instance identity, e.g. "quarantine(h7)".
func InstanceKey(name string, args []string) string {
	return name + "(" + strings.Join(args, ",") + ")"
}

// Instantiate applies a template with the given arguments, inserting the
// rules its body lowers to. Instantiating an already-active instance is a
// no-op. The instance stays active until Retract (or until a SetSource
// whose document no longer carries a compatible template).
func (e *Engine) Instantiate(name string, args ...string) (Delta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := InstanceKey(name, args)
	if _, active := e.instances[key]; active {
		return Delta{}, nil
	}
	stmts, err := instantiateStmts(e.doc, name, args)
	if err != nil {
		return Delta{}, policytext.AsErrorList(err)
	}
	now := e.sched.Now()
	var d Delta
	windowed := false
	for _, rs := range stmts {
		crs, lerr := lowerStmt(e.doc, rs, key)
		if lerr != nil {
			// Roll back statements already applied for this instance.
			e.retractLocked(key, &Delta{})
			return Delta{}, policytext.ErrorList{lerr}
		}
		sk := stmtKey(rs, key)
		if _, dup := e.stmts[sk]; dup {
			continue
		}
		st := &runtimeStmt{key: sk, rs: rs, tmpl: key, deps: stmtDeps(e.doc, rs), active: rs.Window.Active(now)}
		e.stmts[sk] = st
		e.order = append(e.order, sk)
		if !rs.Window.IsZero() {
			windowed = true
		}
		if st.active {
			desired := map[string]CompiledRule{}
			for _, cr := range crs {
				desired[cr.Key] = cr
			}
			e.applyStmtDelta(sk, desired, &d)
		}
	}
	e.instances[key] = templateInstance{name: name, args: args}
	if windowed {
		e.rearmTimerLocked()
	}
	sortDelta(&d)
	return d, nil
}

// Retract removes a template instance, revoking the rules it inserted.
// Retracting an inactive instance is a no-op.
func (e *Engine) Retract(name string, args ...string) (Delta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := InstanceKey(name, args)
	if _, active := e.instances[key]; !active {
		return Delta{}, nil
	}
	var d Delta
	e.retractLocked(key, &d)
	delete(e.instances, key)
	e.rearmTimerLocked()
	sortDelta(&d)
	return d, nil
}

// retractLocked removes every statement belonging to a template instance.
func (e *Engine) retractLocked(instanceKey string, d *Delta) {
	keep := e.order[:0]
	for _, sk := range e.order {
		st := e.stmts[sk]
		if st.tmpl != instanceKey {
			keep = append(keep, sk)
			continue
		}
		e.applyStmtDelta(sk, nil, d)
		delete(e.byStmt, sk)
		delete(e.stmts, sk)
	}
	e.order = keep
}

// instantiateStmts substitutes args into the template body and parses the
// resulting rule statements.
func instantiateStmts(doc *policytext.Document, name string, args []string) ([]policytext.RuleStmt, error) {
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
	var out []policytext.RuleStmt
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
		out = append(out, rs)
	}
	if len(errs) > 0 {
		return nil, errs
	}
	return out, nil
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
		if st.rs.Window.IsZero() {
			continue
		}
		at, ok := st.rs.Window.NextTransition(now)
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

// onWindowTimer re-evaluates every windowed statement's active state and
// applies the deltas for those that flipped, then re-arms.
func (e *Engine) onWindowTimer(gen uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if gen != e.timerGen {
		return
	}
	now := e.sched.Now()
	var d Delta
	for _, sk := range e.order {
		st := e.stmts[sk]
		if st.rs.Window.IsZero() {
			continue
		}
		active := st.rs.Window.Active(now)
		if active == st.active {
			continue
		}
		st.active = active
		desired := map[string]CompiledRule{}
		if active {
			crs, err := lowerStmt(e.doc, st.rs, st.tmpl)
			if err != nil {
				// Lowering was valid when last checked; leave the statement
				// contributing nothing rather than partially applying.
				st.active = false
				continue
			}
			for _, cr := range crs {
				desired[cr.Key] = cr
			}
		}
		e.applyStmtDelta(sk, desired, &d)
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
