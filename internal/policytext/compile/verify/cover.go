package verify

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// weekMinutes is the granularity of temporal reasoning: one bit per
// minute of the week (Sunday 00:00 first, matching time.Weekday).
const weekMinutes = 7 * 24 * 60

// weekBits is a window's activation set over one week. Window semantics
// repeat weekly, so containment over one week is containment forever.
type weekBits [(weekMinutes + 63) / 64]uint64

func (b *weekBits) set(i int) { b[i/64] |= 1 << uint(i%64) }

// contains reports o ⊆ b.
func (b *weekBits) contains(o *weekBits) bool {
	if b == o || b == fullWeek {
		return true
	}
	for i := range o {
		if o[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

func (b *weekBits) or(o *weekBits) {
	for i := range o {
		b[i] |= o[i]
	}
}

func (b *weekBits) intersects(o *weekBits) bool {
	for i := range o {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

func (b *weekBits) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// windowBits expands a Window into its weekly activation set, mirroring
// Window.Active exactly: Days bit 0 is Sunday and 0 means every day; a
// clock interval is [StartMin, EndMin) wrapping midnight when
// StartMin > EndMin, and empty when equal.
func windowBits(w policytext.Window) *weekBits {
	var b weekBits
	setRange := func(day, from, to int) { // [from, to) minutes of day
		for m := from; m < to; m++ {
			b.set(day*1440 + m)
		}
	}
	for day := 0; day < 7; day++ {
		if w.Days != 0 && w.Days&(1<<uint(day)) == 0 {
			continue
		}
		switch {
		case !w.HasTime:
			setRange(day, 0, 1440)
		case w.StartMin < w.EndMin:
			setRange(day, w.StartMin, w.EndMin)
		case w.StartMin > w.EndMin:
			setRange(day, w.StartMin, 1440)
			setRange(day, 0, w.EndMin)
		}
	}
	return &b
}

// windowCache memoizes windowBits per distinct Window value.
type windowCache struct {
	bits map[policytext.Window]*weekBits
}

func newWindowCache() *windowCache {
	return &windowCache{bits: map[policytext.Window]*weekBits{}}
}

func (c *windowCache) get(w policytext.Window) *weekBits {
	if b, ok := c.bits[w]; ok {
		return b
	}
	b := windowBits(w)
	c.bits[w] = b
	return b
}

// fullWeek is the activation set of the zero (always active) window.
var fullWeek = windowBits(policytext.Window{})

// ruleSig is what analysis derives from a lowered rule alone: its
// signature, window and the statement text it came from. It holds no line
// or priority, so one statement lowering computes it once (sigs) for every
// program that reuses the lowering.
type ruleSig struct {
	rule   *policy.Rule // its Origin may name an older line
	action policy.Action
	stmt   string
	via    string
	window policytext.Window
	bits   *weekBits
	mask   fieldMask
	key    tupleKey
}

// vrule is one lowered rule under analysis: its signature at the line and
// priority it has in the program analysed.
type vrule struct {
	*ruleSig
	prio int
	line int
	tmpl string
}

// sigs returns the signatures of st's rules, computed once per lowering.
func sigs(st *compile.StmtRules) []ruleSig {
	return st.Memo(buildSigs).([]ruleSig)
}

func buildSigs(st *compile.StmtRules) any {
	bits := fullWeek
	if !st.Stmt.Window.IsZero() {
		bits = windowBits(st.Stmt.Window)
	}
	out := make([]ruleSig, len(st.Rules))
	for i := range st.Rules {
		cr := &st.Rules[i]
		s := &out[i]
		s.rule, s.action, s.stmt, s.via = &cr.Rule, cr.Rule.Action, cr.Prov.Stmt, cr.Prov.Via
		s.window, s.bits = st.Stmt.Window, bits
		s.mask, s.key = ruleKey(&cr.Rule)
	}
	return out
}

// analysis is a program's document rules under analysis and their index.
// It is kept with the program (compile.Program.Memo): the gate builds it
// for the program a PUT proposes, and the next PUT's widening reads it as
// the program replaced.
type analysis struct {
	rules  []*vrule
	ix     *covererIndex
	denies []*vrule
}

func analyse(p *compile.Program) *analysis {
	return p.Memo(buildAnalysis).(*analysis)
}

func buildAnalysis(p *compile.Program) any {
	rules := appendRules(nil, p.Doc, p.Stmts)
	return &analysis{rules: rules, ix: buildIndex(rules), denies: denies(rules)}
}

// placeholderStmts lowers every template body with placeholder arguments
// ($param stays a literal value), so template rules participate in
// analysis before any instance exists. Templates whose parameter
// positions cannot hold a placeholder are skipped, and so are body
// statements that fail to lower: compile owns reporting those as errors.
func placeholderStmts(doc *policytext.Document) []compile.StmtRules {
	var out []compile.StmtRules
	for _, t := range doc.Templates {
		args := make([]string, len(t.Params))
		for i, p := range t.Params {
			args[i] = "$" + p
		}
		stmts, _ := compile.CompileTemplate(doc, t.Name, args)
		out = append(out, stmts...)
	}
	return out
}

// appendRules appends the analysis rules of doc's statements stmts, each
// at its pdp's priority in doc.
func appendRules(out []*vrule, doc *policytext.Document, stmts []compile.StmtRules) []*vrule {
	prio := make(map[string]int, len(doc.PDPs))
	for _, p := range doc.PDPs {
		prio[p.Name] = p.Priority
	}
	n := 0
	for i := range stmts {
		n += len(stmts[i].Rules)
	}
	slab := make([]vrule, n)
	out = slices.Grow(out, n)
	for i := range stmts {
		st := &stmts[i]
		ss := sigs(st)
		for j := range ss {
			v := &slab[0]
			slab = slab[1:]
			*v = vrule{ruleSig: &ss[j], prio: prio[ss[j].rule.PDP], line: st.Rules[j].Prov.Line, tmpl: st.Template}
			out = append(out, v)
		}
	}
	return out
}

// covererIndex groups rules by (mask, key) so finding every rule whose
// match set contains a given rule's is one project + one map probe per
// distinct mask, instead of a quadratic pairwise scan.
type covererIndex struct {
	masks  []fieldMask
	byMask map[fieldMask]map[tupleKey][]*vrule
}

func buildIndex(rules []*vrule) *covererIndex {
	ix := &covererIndex{byMask: map[fieldMask]map[tupleKey][]*vrule{}}
	for _, v := range rules {
		slot := ix.byMask[v.mask]
		if slot == nil {
			slot = map[tupleKey][]*vrule{}
			ix.byMask[v.mask] = slot
			ix.masks = append(ix.masks, v.mask)
		}
		slot[v.key] = append(slot[v.key], v)
	}
	return ix
}

// indexes is a list of indexes read as one index over all their rules, in
// order: masks in order of first appearance, rules of a slot index by
// index.
type indexes []*covererIndex

// coverersOf returns every rule other than self whose match set contains
// v's: rules over a field subset of v's mask whose probe key equals v's
// values projected onto that subset.
func (ixs indexes) coverersOf(v, self *vrule) []*vrule {
	var out []*vrule
	for i, ix := range ixs {
		for _, m := range ix.masks {
			if !m.subsetOf(v.mask) || ixs[:i].hasMask(m) {
				continue
			}
			k, ok := project(v.mask, v.key, m)
			if !ok {
				continue
			}
			for _, ix := range ixs[i:] {
				for _, a := range ix.byMask[m][k] {
					if a != self {
						out = append(out, a)
					}
				}
			}
		}
	}
	return out
}

func (ixs indexes) hasMask(m fieldMask) bool {
	for _, ix := range ixs {
		if _, ok := ix.byMask[m]; ok {
			return true
		}
	}
	return false
}

// sameMatchSet reports whether two rules match exactly the same flows at
// the same times.
func sameMatchSet(a, b *vrule) bool {
	return a.mask == b.mask && a.key == b.key && (a.bits == b.bits || *a.bits == *b.bits)
}

// coverage runs the shadow / conflict / redundancy analysis over rules,
// every rule ixs indexes.
func coverage(rules []*vrule, ixs indexes) []Finding {
	var fs []Finding
	for _, b := range rules {
		covs := ixs.coverersOf(b, b)
		if len(covs) == 0 {
			continue
		}
		var higher, equalDeny, equalSame []*vrule
		for _, a := range covs {
			switch {
			case a.prio > b.prio:
				higher = append(higher, a)
			case a.prio == b.prio && a.action == b.action:
				equalSame = append(equalSame, a)
			case a.prio == b.prio && a.action == policy.ActionDeny && b.action == policy.ActionAllow:
				equalDeny = append(equalDeny, a)
			}
		}
		if f, dead := shadowFinding(b, higher); dead {
			fs = append(fs, f)
			continue // a dead rule's conflicts/redundancy are moot
		}
		if b.action == policy.ActionAllow {
			if f, hit := conflictFinding(b, equalDeny); hit {
				fs = append(fs, f)
				continue
			}
		}
		if f, hit := redundantFinding(b, equalSame); hit {
			fs = append(fs, f)
		}
	}
	return fs
}

// unionContains reports whether the union of rules' windows contains w.
func unionContains(rules []*vrule, w *weekBits) bool {
	var union weekBits
	for _, a := range rules {
		if a.bits.contains(w) {
			return true
		}
		union.or(a.bits)
	}
	return union.contains(w)
}

// shadowFinding reports b dead when the union of its higher-priority
// coverers' windows contains b's own window: whenever b is active and a
// flow matches it, some coverer matches too and outranks it.
func shadowFinding(b *vrule, higher []*vrule) (Finding, bool) {
	if len(higher) == 0 {
		return Finding{}, false
	}
	if !unionContains(higher, b.bits) {
		return Finding{}, false
	}
	// The dangerous direction: a deny whose coverage includes an allow is
	// silently inert — traffic it names flows anyway.
	sev := SevWarn
	rep := higher[0]
	for _, a := range higher {
		if a.action != b.action && a.bits.intersects(b.bits) {
			rep = a
			if b.action == policy.ActionDeny && a.action == policy.ActionAllow {
				sev = SevError
			}
			break
		}
	}
	check := CheckShadow
	verb := "never matched"
	if !b.window.IsZero() {
		check = CheckDeadWindow
		verb = "permanently shadowed inside its window"
	}
	msg := fmt.Sprintf("%s rule is %s: covered by higher-priority %s %q (line %d, priority %d > %d)",
		b.action, verb, rep.action, rep.stmt, rep.line, rep.prio, b.prio)
	if len(higher) > 1 {
		msg += fmt.Sprintf(" and %d more", len(higher)-1)
	}
	return finding(check, sev, b, rep.line, msg), true
}

// conflictFinding reports an allow that equal-priority denies fully
// cover: deny wins priority ties, so the allow never wins. Fail-closed,
// hence warn.
func conflictFinding(b *vrule, equalDeny []*vrule) (Finding, bool) {
	if len(equalDeny) == 0 {
		return Finding{}, false
	}
	if !unionContains(equalDeny, b.bits) {
		return Finding{}, false
	}
	rep := equalDeny[0]
	msg := fmt.Sprintf("allow can never win: overlapping deny %q at equal priority %d (line %d) wins ties",
		rep.stmt, b.prio, rep.line)
	return finding(CheckConflict, SevWarn, b, rep.line, msg), true
}

// redundantFinding reports a rule individually implied by a same-action,
// equal-priority superset. Identical pairs tie-break to flag the later
// occurrence only.
func redundantFinding(b *vrule, equalSame []*vrule) (Finding, bool) {
	for _, a := range equalSame {
		if !a.bits.contains(b.bits) {
			continue
		}
		if sameMatchSet(a, b) && a.line >= b.line {
			continue // report the duplicate at the later line only
		}
		rel := "duplicates"
		if !sameMatchSet(a, b) {
			rel = "is implied by broader"
		}
		msg := fmt.Sprintf("rule %s same-action %s %q at equal priority (line %d)",
			rel, a.action, a.stmt, a.line)
		return finding(CheckRedundant, SevWarn, b, a.line, msg), true
	}
	return Finding{}, false
}

// windows runs the per-statement temporal checks that need no coverage
// analysis: windows that never activate (unconstructible from text, but
// documents can be built programmatically) and windows that constrain
// nothing.
func windows(stmts []compile.StmtRules, wc *windowCache) []Finding {
	var fs []Finding
	for _, st := range stmts {
		rs, tmpl := st.Stmt, st.Template
		if rs.Window.IsZero() {
			continue
		}
		b := wc.get(rs.Window)
		switch {
		case b.count() == 0:
			fs = append(fs, Finding{
				Check: CheckDeadWindow, Severity: SevError, Line: rs.Line,
				Stmt: policytext.FormatStmt(rs), Template: tmpl,
				Message: fmt.Sprintf("temporal window %q can never be active", rs.Window),
			})
		case b.contains(fullWeek):
			fs = append(fs, Finding{
				Check: CheckDeadWindow, Severity: SevWarn, Line: rs.Line,
				Stmt: policytext.FormatStmt(rs), Template: tmpl,
				Message: fmt.Sprintf("temporal clause %q has no effect: the window spans the entire week", rs.Window),
			})
		}
	}
	return fs
}

func finding(check string, sev Severity, b *vrule, otherLine int, msg string) Finding {
	return Finding{
		Check:     check,
		Severity:  sev,
		Line:      b.line,
		Stmt:      b.stmt,
		Template:  b.tmpl,
		Via:       b.via,
		OtherLine: otherLine,
		Message:   msg,
	}
}
