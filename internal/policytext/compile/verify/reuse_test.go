package verify

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/simclock"
)

// reuseBase is bigDoc(1000) with nested groups, roles, a template and a
// windowed statement over them, so edits reach every dependency reuse
// must respect.
func reuseBase() string {
	return bigDoc(1000) + `group g2 { user c0; host c1 }
group g0 { user a0; group g2 }
group g1 { group g0; host b1 }
role r0 { host srv0 }
role r1 { host srv1 port 22 }
pdp extra priority 70
template quarantine(h) { deny from host $h; deny to host $h }
allow from group g1 to role r0
allow proto tcp from group g0 to host db
deny from role r1 to group g2
allow from group g2 to role r1 between 08:00-18:00
`
}

// reuseEdit makes one edit of a kind Recompile must track: it adds,
// removes, moves, duplicates, re-spaces or flips a rule line, changes a
// group's members, redefines a role, changes a pdp priority or changes a
// template body.
func reuseEdit(rng *rand.Rand, src string) string {
	lines := strings.Split(src, "\n")
	find := func(prefix string) []int {
		var out []int
		for i, l := range lines {
			if strings.HasPrefix(l, prefix) {
				out = append(out, i)
			}
		}
		return out
	}
	pick := func(is []int) int {
		if len(is) == 0 {
			return -1
		}
		return is[rng.Intn(len(is))]
	}
	rules := append(find("allow "), find("deny ")...)
	pdps := find("pdp ")
	insert := func(at int, l string) {
		lines = slices.Insert(lines, at, l)
	}
	afterPDP := func() int { // a line position inside some pdp section
		if len(pdps) == 0 {
			return len(lines)
		}
		return pdps[0] + 1 + rng.Intn(len(lines)-pdps[0])
	}
	ends := []string{"host h1", "host s3", "user u5", "group g0", "group g1", "group g2",
		"role r0", "role r1", "host vault", "ip 10.0.0.9", "host srv0"}
	switch kind := rng.Intn(10); {
	case kind == 0 && len(rules) > 0: // remove
		i := pick(rules)
		lines = slices.Delete(lines, i, i+1)
	case kind == 1: // add
		l := fmt.Sprintf("allow proto tcp from %s to %s", ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))])
		if rng.Intn(3) == 0 {
			l = fmt.Sprintf("deny from %s to %s port %d", ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))], 20+rng.Intn(5))
		}
		if rng.Intn(4) == 0 {
			l += " between 22:00-06:00"
		}
		insert(afterPDP(), l)
	case kind == 2 && len(rules) > 0: // move
		i := pick(rules)
		l := lines[i]
		lines = slices.Delete(lines, i, i+1)
		insert(afterPDP()-1, l)
	case kind == 3: // group members
		pool := map[string][]string{
			"g2": {"user c0", "host c1", "user c2"},
			"g0": {"user a0", "user a1", "group g2"},
			"g1": {"group g0", "host b1", "group g2"},
		}
		name := []string{"g0", "g1", "g2"}[rng.Intn(3)]
		if i := pick(find("group " + name + " ")); i >= 0 {
			var members []string
			for _, m := range pool[name] {
				if rng.Intn(3) > 0 {
					members = append(members, m)
				}
			}
			lines[i] = fmt.Sprintf("group %s { %s }", name, strings.Join(members, "; "))
		}
	case kind == 4: // role
		name := []string{"r0", "r1"}[rng.Intn(2)]
		if i := pick(find("role " + name + " ")); i >= 0 {
			lines[i] = fmt.Sprintf("role %s { host srv%d }", name, rng.Intn(3))
			if rng.Intn(2) == 0 {
				lines[i] = fmt.Sprintf("role %s { host srv%d port 22 }", name, rng.Intn(3))
			}
		}
	case kind == 5 && len(pdps) > 0: // pdp priority
		i := pick(pdps)
		f := strings.Fields(lines[i])
		lines[i] = fmt.Sprintf("pdp %s priority %d", f[1], 1+rng.Intn(120))
	case kind == 6: // template body
		if i := pick(find("template quarantine(")); i >= 0 {
			bodies := []string{"deny from host $h; deny to host $h", "deny from host $h", "deny from host $h to group g0"}
			lines[i] = "template quarantine(h) { " + bodies[rng.Intn(len(bodies))] + " }"
		}
	case kind == 7 && len(rules) > 0: // duplicate
		insert(afterPDP(), lines[pick(rules)])
	case kind == 8 && len(rules) > 0: // same statement, other spacing
		i := pick(rules)
		lines[i] = strings.Replace(lines[i], " ", "   ", 1)
	case len(rules) > 0: // flip
		i := pick(rules)
		if strings.HasPrefix(lines[i], "allow ") {
			lines[i] = "deny " + strings.TrimPrefix(lines[i], "allow ")
		} else {
			lines[i] = "allow " + strings.TrimPrefix(lines[i], "deny ")
		}
	}
	return strings.Join(lines, "\n")
}

// reuseSide is one engine with its manager, clock and the flush lists the
// manager issued.
type reuseSide struct {
	pm      *policy.Manager
	eng     *compile.Engine
	clock   *simclock.Simulated
	flushes [][]policy.RuleID
}

func newReuseSide() *reuseSide {
	s := &reuseSide{pm: policy.NewManager(), clock: simclock.NewSimulated(time.Date(2026, 10, 19, 12, 0, 0, 0, time.UTC))}
	s.pm.SetFlushFunc(func(_ obs.SpanContext, ids []policy.RuleID) { s.flushes = append(s.flushes, slices.Clone(ids)) })
	s.eng = compile.NewEngine(s.pm, s.clock)
	s.eng.SetCheck(Gate)
	return s
}

func storedText(rs []policy.Rule) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%d %s %d %s %q\n", r.ID, r.PDP, r.Priority, policytext.FormatRule(r), r.Origin)
	}
	return b.String()
}

func deltaText(d compile.Delta) string {
	return "insert:\n" + storedText(d.Insert) + "revoke:\n" + storedText(d.Revoke)
}

// reuseProgramText renders everything a program holds per statement.
func reuseProgramText(p *compile.Program) string {
	var b strings.Builder
	for _, st := range p.Stmts {
		fmt.Fprintf(&b, "%d %s %q:", st.Stmt.Line, st.Key, st.Template)
		for _, cr := range st.Rules {
			fmt.Fprintf(&b, " [%s %s %q %d %q %q]", cr.Key, cr.Rule.PDP, cr.Rule.Origin, cr.Prov.Line, cr.Prov.Stmt, cr.Prov.Via)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ruleSetText renders rules without their ids, sorted: what a fresh
// engine must hold too, origins included.
func ruleSetText(rs []policy.Rule) string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%s %d %s %q", r.PDP, r.Priority, policytext.FormatRule(r), r.Origin)
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}

// provenanceText renders an engine's compiled view without rule ids,
// sorted by key.
func provenanceText(crs []compile.CompiledRule) string {
	for i := range crs {
		crs[i].Rule.ID = 0
	}
	slices.SortFunc(crs, func(a, b compile.CompiledRule) int { return strings.Compare(a.Key, b.Key) })
	return compiledText(crs)
}

func compiledText(crs []compile.CompiledRule) string {
	var b strings.Builder
	for _, cr := range crs {
		fmt.Fprintf(&b, "%s %d %s %d %q %d %q %q %q\n", cr.Key, cr.Rule.ID, cr.Rule.PDP, cr.Rule.Priority, cr.Rule.Origin,
			cr.Prov.Line, cr.Prov.Stmt, cr.Prov.Template, cr.Prov.Via)
	}
	return b.String()
}

// TestRecompileMatchesFreshCompile: an engine that compiles every document
// against its running program (reuse) and one that compiles every
// document from scratch (ref) take the same seeded edits — of bigDoc(1000)
// extended with groups, roles and a template, and of every verifier
// corpus document — plus membership changes, template instances and
// clock advances. After every step they agree on the program, the
// findings, the diff, the apply (delta, gate findings, widening against
// the replaced program), the manager's rules, every flush list and the
// engine's compiled view; and a fresh engine loaded with the running
// document holds the same rules with the same provenance.
func TestRecompileMatchesFreshCompile(t *testing.T) {
	type sequence struct {
		name  string
		src   string
		steps int
		keep  bool // keep only edits both engines accept
	}
	seqs := []sequence{{"big", reuseBase(), 40, true}}
	ents, err := os.ReadDir(filepath.Join("testdata", "bad"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		seqs = append(seqs, sequence{e.Name(), readCorpus(t, e.Name()), 6, false})
	}
	rng := rand.New(rand.NewSource(44))
	accepted := 0
	for _, seq := range seqs {
		reuse, ref := newReuseSide(), newReuseSide()
		src := seq.src
		for step := 0; step <= seq.steps; step++ {
			name := fmt.Sprintf("%s step %d", seq.name, step)
			next := src
			if step > 0 {
				next = reuseEdit(rng, src)
			}
			doc, err := policytext.Parse(strings.NewReader(next))
			if err != nil {
				continue
			}
			refDoc, _ := policytext.Parse(strings.NewReader(next))
			got, want := reuse.eng.Compile(doc), compile.Compile(refDoc)
			if g, w := reuseProgramText(got), reuseProgramText(want); g != w {
				t.Fatalf("%s: program differs from a fresh compile\n got:\n%s\nwant:\n%s", name, g, w)
			}
			if g, w := fmt.Sprint(Findings(got)), fmt.Sprint(Findings(want)); g != w {
				t.Fatalf("%s: findings differ\n got: %s\nwant: %s", name, g, w)
			}
			dg, _, errG := reuse.eng.Diff(got)
			dw, _, errW := ref.eng.Diff(want)
			if fmt.Sprint(errG) != fmt.Sprint(errW) || deltaText(dg) != deltaText(dw) {
				t.Fatalf("%s: diff differs\n got: %v\n%s\nwant: %v\n%s", name, errG, deltaText(dg), errW, deltaText(dw))
			}

			dg, prevG, fsG, errG := reuse.eng.Apply(got)
			dw, prevW, fsW, errW := ref.eng.Apply(want)
			if fmt.Sprint(errG) != fmt.Sprint(errW) {
				t.Fatalf("%s: apply errors differ\n got: %v\nwant: %v", name, errG, errW)
			}
			if errG == nil {
				accepted++
				src = next
				if deltaText(dg) != deltaText(dw) || fmt.Sprint(fsG) != fmt.Sprint(fsW) {
					t.Fatalf("%s: apply differs\n got: %s%v\nwant: %s%v", name, deltaText(dg), fsG, deltaText(dw), fsW)
				}
				pr, nr := appendRules(nil, prevW.Doc, prevW.Stmts), appendRules(nil, want.Doc, want.Stmts)
				wantWiden := widen(buildIndex(pr), denies(pr), nr, deniedInNextLinear(nr))
				if g, w := fmt.Sprint(VerifyTransition(prevG, got)), fmt.Sprint(wantWiden); g != w {
					t.Fatalf("%s: widening differs\n got: %s\nwant: %s", name, g, w)
				}
			} else if !seq.keep {
				src = next
			}

			// Runtime events between documents, on both engines alike.
			switch rng.Intn(6) {
			case 0:
				m := fmt.Sprintf("user z%d", rng.Intn(3))
				for _, s := range []*reuseSide{reuse, ref} {
					_, _ = s.eng.AddMember("g0", m)
				}
			case 1:
				h := fmt.Sprintf("h%d", rng.Intn(4))
				for _, s := range []*reuseSide{reuse, ref} {
					_, _ = s.eng.Instantiate(obs.SpanContext{}, "quarantine", h)
					_, _ = s.eng.Retract(obs.SpanContext{}, "quarantine", "h0")
				}
			case 2:
				d := time.Duration(1+rng.Intn(12)) * time.Hour
				for _, s := range []*reuseSide{reuse, ref} {
					s.clock.RunUntil(s.clock.Now().Add(d))
				}
			}
			if g, w := storedText(reuse.pm.Rules()), storedText(ref.pm.Rules()); g != w {
				t.Fatalf("%s: manager rules differ\n got:\n%s\nwant:\n%s", name, g, w)
			}
			if g, w := fmt.Sprint(reuse.flushes), fmt.Sprint(ref.flushes); g != w {
				t.Fatalf("%s: flush lists differ\n got: %s\nwant: %s", name, g, w)
			}
			if g, w := compiledText(reuse.eng.Compiled()), compiledText(ref.eng.Compiled()); g != w {
				t.Fatalf("%s: compiled view differs\n got:\n%s\nwant:\n%s", name, g, w)
			}
			// Both engines share the engine code, so a fresh engine loaded
			// with the running document and instances at the same instant
			// checks what the incremental applies left behind.
			_, running, _ := reuse.eng.Diff(compile.Compile(&policytext.Document{}))
			freshPM := policy.NewManager()
			fresh := compile.NewEngine(freshPM, simclock.NewSimulated(reuse.clock.Now()))
			if _, _, _, err := fresh.Apply(compile.Compile(running.Doc)); err != nil {
				t.Fatalf("%s: fresh engine rejects the running document: %v", name, err)
			}
			for _, inst := range reuse.eng.Instances() {
				tmpl, args, _ := strings.Cut(strings.TrimSuffix(inst, ")"), "(")
				if _, err := fresh.Instantiate(obs.SpanContext{}, tmpl, strings.Split(args, ",")...); err != nil {
					t.Fatal(err)
				}
			}
			if g, w := ruleSetText(reuse.pm.Rules()), ruleSetText(freshPM.Rules()); g != w {
				t.Fatalf("%s: manager rules differ from a fresh engine's\n got:\n%s\nwant:\n%s", name, g, w)
			}
			if g, w := provenanceText(reuse.eng.Compiled()), provenanceText(fresh.Compiled()); g != w {
				t.Fatalf("%s: provenance differs from a fresh engine's\n got:\n%s\nwant:\n%s", name, g, w)
			}
		}
	}
	t.Logf("%d applies accepted", accepted)
	if accepted < 20 {
		t.Fatalf("only %d edits accepted: the sequence does not reach the engine", accepted)
	}
}
