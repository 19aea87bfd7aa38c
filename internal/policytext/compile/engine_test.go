package compile

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/simclock"
)

const engineDoc = `
group eng { user alice; user bob }
group servers { host web; host db }
role mail { host mailserver port 143 }
pdp corp priority 50
template quarantine(h) { deny from host $h; deny to host $h }
allow proto tcp from group eng to group servers
allow from group eng to role mail
deny from host lobby-kiosk
`

func newEngine(t *testing.T) (*Engine, *policy.Manager) {
	t.Helper()
	pm := policy.NewManager()
	return NewEngine(pm, nil), pm
}

func TestSetSourceInstallsRules(t *testing.T) {
	eng, pm := newEngine(t)
	d, err := eng.SetSource(engineDoc)
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 cross product + 2 mail rules + kiosk = 7.
	if len(d.Insert) != 7 || len(d.Revoke) != 0 {
		t.Fatalf("delta = +%d/-%d, want +7/-0", len(d.Insert), len(d.Revoke))
	}
	if pm.Len() != 7 {
		t.Fatalf("manager has %d rules", pm.Len())
	}
	for _, r := range d.Insert {
		if r.ID == 0 {
			t.Fatalf("insert without assigned ID: %+v", r)
		}
		if r.Origin == "" {
			t.Fatalf("insert without origin: %+v", r)
		}
	}
	if prio, ok := pm.PDPPriority("corp"); !ok || prio != 50 {
		t.Fatalf("pdp corp priority = %d, %v", prio, ok)
	}
	// Compiled reports the effective (PDP-stamped) priority, matching
	// what the manager enforces, not the pre-insert zero value.
	for _, cr := range eng.Compiled() {
		if cr.Rule.Priority != 50 {
			t.Fatalf("compiled rule priority = %d, want 50: %+v", cr.Rule.Priority, cr.Rule)
		}
	}
}

func TestSetSourceAtomicOnError(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	before := pm.Epoch()
	_, err := eng.SetSource(engineDoc + "\nallow from group ghosts\n")
	if err == nil {
		t.Fatal("bad document accepted")
	}
	if pm.Epoch() != before || pm.Len() != 7 {
		t.Fatal("failed apply mutated the manager")
	}
	if eng.Source() == "" || strings.Contains(eng.Source(), "ghosts") {
		t.Fatal("failed apply replaced the document")
	}
}

func TestSetSourceDeltaKeepsUnchangedIDs(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	idByText := map[string]policy.RuleID{}
	for _, r := range pm.Rules() {
		idByText[ruleText(r)] = r.ID
	}
	// Add one statement: the delta must be exactly its rules.
	d, err := eng.SetSource(engineDoc + "\ndeny to ip 10.0.0.66\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 1 || len(d.Revoke) != 0 {
		t.Fatalf("delta = +%d/-%d, want +1/-0", len(d.Insert), len(d.Revoke))
	}
	for _, r := range pm.Rules() {
		if id, had := idByText[ruleText(r)]; had && id != r.ID {
			t.Fatalf("rule %s changed ID %d -> %d across recompile", ruleText(r), id, r.ID)
		}
	}
}

func TestDiffDoesNotApply(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	epoch := pm.Epoch()
	d, _, err := eng.Diff(Compile(mustParse(t, engineDoc+"\ndeny to ip 10.0.0.66\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 1 || len(d.Revoke) != 0 {
		t.Fatalf("diff = +%d/-%d, want +1/-0", len(d.Insert), len(d.Revoke))
	}
	if d.Insert[0].ID != 0 {
		t.Fatalf("diffed insert carries an ID: %+v", d.Insert[0])
	}
	if pm.Epoch() != epoch {
		t.Fatal("Diff mutated the manager")
	}
	// Diff of a removal reports the installed ID being revoked.
	smaller := strings.Replace(engineDoc, "deny from host lobby-kiosk\n", "", 1)
	d, _, err = eng.Diff(Compile(mustParse(t, smaller)))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Revoke) != 1 || d.Revoke[0].ID == 0 {
		t.Fatalf("diff revoke = %+v", d.Revoke)
	}
}

func TestMembershipDeltaIsMinimal(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	idByText := map[string]policy.RuleID{}
	for _, r := range pm.Rules() {
		idByText[ruleText(r)] = r.ID
	}
	d, err := eng.AddMember("eng", "user carol")
	if err != nil {
		t.Fatal(err)
	}
	// carol -> {web, db, mail} = 3 inserts, nothing revoked.
	if len(d.Insert) != 3 || len(d.Revoke) != 0 {
		t.Fatalf("delta = +%d/-%d, want +3/-0", len(d.Insert), len(d.Revoke))
	}
	for _, r := range pm.Rules() {
		if id, had := idByText[ruleText(r)]; had && id != r.ID {
			t.Fatalf("untouched rule %s changed ID", ruleText(r))
		}
	}
	// Idempotent.
	if d, err = eng.AddMember("eng", "user carol"); err != nil || !d.Empty() {
		t.Fatalf("re-add: %v %v", d, err)
	}
	// Remove revokes exactly carol's rules.
	d, err = eng.RemoveMember("eng", "user carol")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 0 || len(d.Revoke) != 3 {
		t.Fatalf("delta = +%d/-%d, want +0/-3", len(d.Insert), len(d.Revoke))
	}
	if d, err = eng.RemoveMember("eng", "user carol"); err != nil || !d.Empty() {
		t.Fatalf("re-remove: %v %v", d, err)
	}
	// The document text reflects the churn.
	if strings.Contains(eng.Source(), "carol") {
		t.Fatal("removed member still in Source()")
	}
}

func TestMembershipChangeRejectsCleanly(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	before := pm.Epoch()
	if _, err := eng.AddMember("eng", "group ghosts"); err == nil {
		t.Fatal("unknown nested group accepted")
	}
	// A member whose fields collide with a rule's literal endpoint must be
	// rejected before any rule mutation: the mail statement pins dst host.
	if _, err := eng.AddMember("ghosts", "user x"); err == nil {
		t.Fatal("unknown group accepted")
	}
	if pm.Epoch() != before {
		t.Fatal("rejected change mutated the manager")
	}
	if strings.Contains(eng.Source(), "ghosts") {
		t.Fatal("rejected change left the document dirty")
	}
}

func TestTemplateInstantiateRetract(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	base := pm.Len()
	d, err := eng.Instantiate(obs.SpanContext{}, "quarantine", "h7")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 2 || len(d.Revoke) != 0 {
		t.Fatalf("delta = +%d/-%d, want +2/-0", len(d.Insert), len(d.Revoke))
	}
	for _, r := range d.Insert {
		if !strings.Contains(r.Origin, "template quarantine(h7)") {
			t.Fatalf("origin = %q", r.Origin)
		}
	}
	if got := eng.Instances(); len(got) != 1 || got[0] != "quarantine(h7)" {
		t.Fatalf("instances = %v", got)
	}
	// Idempotent instantiate; independent second instance.
	if d, err = eng.Instantiate(obs.SpanContext{}, "quarantine", "h7"); err != nil || !d.Empty() {
		t.Fatalf("re-instantiate: %v %v", d, err)
	}
	if _, err = eng.Instantiate(obs.SpanContext{}, "quarantine", "h9"); err != nil {
		t.Fatal(err)
	}
	if pm.Len() != base+4 {
		t.Fatalf("manager has %d rules, want %d", pm.Len(), base+4)
	}
	// Retract one instance; the other survives.
	d, err = eng.Retract(obs.SpanContext{}, "quarantine", "h7")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Revoke) != 2 || pm.Len() != base+2 {
		t.Fatalf("retract delta = %+v, len = %d", d, pm.Len())
	}
	if d, err = eng.Retract(obs.SpanContext{}, "quarantine", "h7"); err != nil || !d.Empty() {
		t.Fatalf("re-retract: %v %v", d, err)
	}

	// Errors: unknown template, arity mismatch.
	if _, err = eng.Instantiate(obs.SpanContext{}, "ghost", "x"); err == nil {
		t.Fatal("unknown template accepted")
	}
	if _, err = eng.Instantiate(obs.SpanContext{}, "quarantine"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestTemplateInstancesSurviveCompatibleSetSource(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Instantiate(obs.SpanContext{}, "quarantine", "h7"); err != nil {
		t.Fatal(err)
	}
	// Compatible reload: instance rules stay, IDs intact.
	var quarantineIDs []policy.RuleID
	for _, r := range pm.Rules() {
		if strings.Contains(r.Origin, "quarantine(h7)") {
			quarantineIDs = append(quarantineIDs, r.ID)
		}
	}
	if len(quarantineIDs) != 2 {
		t.Fatalf("quarantine rules = %d", len(quarantineIDs))
	}
	d, err := eng.SetSource(engineDoc + "\ndeny to ip 10.0.0.66\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 1 || len(d.Revoke) != 0 {
		t.Fatalf("delta = +%d/-%d, want +1/-0", len(d.Insert), len(d.Revoke))
	}
	if got := eng.Instances(); len(got) != 1 {
		t.Fatalf("instances = %v", got)
	}
	for _, id := range quarantineIDs {
		if _, ok := pm.Get(id); !ok {
			t.Fatalf("instance rule %d lost across compatible reload", id)
		}
	}
	// Incompatible reload (template gone): instance dropped, rules revoked.
	noTmpl := strings.Replace(engineDoc, "template quarantine(h) { deny from host $h; deny to host $h }\n", "", 1)
	if _, err := eng.SetSource(noTmpl); err != nil {
		t.Fatal(err)
	}
	if got := eng.Instances(); len(got) != 0 {
		t.Fatalf("instances = %v, want none", got)
	}
	for _, id := range quarantineIDs {
		if _, ok := pm.Get(id); ok {
			t.Fatalf("orphaned template rule %d survived", id)
		}
	}
}

// TestIncrementalEquivalenceOracle drives random group churn through the
// incremental path and checks after every step that the installed rule set
// is identical to a fresh full compile of the same document.
func TestIncrementalEquivalenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng, pm := newEngine(t)
	src := `
group g0 { user seed0 }
group g1 { user seed1; group g0 }
group g2 { host web }
pdp p priority 10
allow from group g0 to group g2
allow proto tcp from group g1 to host db
deny from group g2
allow from host always
`
	if _, err := eng.SetSource(src); err != nil {
		t.Fatal(err)
	}
	groups := []string{"g0", "g1", "g2"}
	members := []string{}
	for i := 0; i < 8; i++ {
		members = append(members, fmt.Sprintf("user u%d", i), fmt.Sprintf("host h%d", i))
	}
	for step := 0; step < 300; step++ {
		g := groups[rng.Intn(len(groups))]
		m := members[rng.Intn(len(members))]
		var err error
		if rng.Intn(2) == 0 {
			_, err = eng.AddMember(g, m)
		} else {
			_, err = eng.RemoveMember(g, m)
		}
		if err != nil {
			t.Fatalf("step %d: %s %s: %v", step, g, m, err)
		}

		// Oracle: fresh full compile of the current document.
		fresh, err := Lower(mustParse(t, eng.Source()), noon)
		if err != nil {
			t.Fatalf("step %d: oracle compile: %v", step, err)
		}
		got := sortedTexts(pm.Rules())
		want := compiledTexts(fresh)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("step %d: incremental diverged from full compile\nincremental:\n%s\nfull:\n%s",
				step, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestTemporalActivationUnderSimclock(t *testing.T) {
	// Monday 2026-01-05 08:00 UTC.
	epoch := time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
	sim := simclock.NewSimulated(epoch)
	pm := policy.NewManager()
	eng := NewEngine(pm, sim)
	if _, err := eng.SetSource(`
pdp p priority 10
allow from host always
allow from host office between 09:00-17:00 days mon-fri
`); err != nil {
		t.Fatal(err)
	}
	hasOffice := func() bool {
		for _, r := range pm.Rules() {
			if r.Src.Host == "office" {
				return true
			}
		}
		return false
	}
	if hasOffice() {
		t.Fatal("window active at 08:00")
	}
	if pm.Len() != 1 {
		t.Fatalf("rules at 08:00 = %d", pm.Len())
	}

	sim.RunUntil(epoch.Add(90 * time.Minute)) // 09:30
	if !hasOffice() {
		t.Fatal("window closed at 09:30")
	}

	sim.RunUntil(epoch.Add(10 * time.Hour)) // 18:00
	if hasOffice() {
		t.Fatal("window open at 18:00")
	}

	sim.RunUntil(epoch.Add(25 * time.Hour)) // Tuesday 09:00
	if !hasOffice() {
		t.Fatal("window closed Tuesday 09:00")
	}

	// Friday 17:00 closes; the following transition is Monday 09:00 — the
	// weekend gap stays closed.
	sat := time.Date(2026, 1, 10, 12, 0, 0, 0, time.UTC)
	sim.RunUntil(sat)
	if hasOffice() {
		t.Fatal("window open Saturday noon")
	}
	mon2 := time.Date(2026, 1, 12, 10, 0, 0, 0, time.UTC)
	sim.RunUntil(mon2)
	if !hasOffice() {
		t.Fatal("window closed the following Monday 10:00")
	}

	// Replacing the document with a window-free one stops the timer churn.
	if _, err := eng.SetSource("pdp p priority 10\nallow from host always\n"); err != nil {
		t.Fatal(err)
	}
	end := sim.Run()
	if end.After(mon2.AddDate(0, 1, 0)) {
		t.Fatalf("stale timers kept firing until %v", end)
	}
	if pm.Len() != 1 {
		t.Fatalf("rules after reload = %d", pm.Len())
	}
}

func TestTemporalTemplateInstance(t *testing.T) {
	epoch := time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
	sim := simclock.NewSimulated(epoch)
	pm := policy.NewManager()
	eng := NewEngine(pm, sim)
	if _, err := eng.SetSource(`
pdp p priority 10
template curfew(h) { deny from host $h between 22:00-06:00 }
`); err != nil {
		t.Fatal(err)
	}
	d, err := eng.Instantiate(obs.SpanContext{}, "curfew", "h7")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("daytime instantiation installed rules: %+v", d)
	}
	sim.RunUntil(epoch.Add(15 * time.Hour)) // 23:00
	if pm.Len() != 1 {
		t.Fatalf("curfew not active at 23:00 (len=%d)", pm.Len())
	}
	sim.RunUntil(epoch.Add(23 * time.Hour)) // 07:00 next day
	if pm.Len() != 0 {
		t.Fatalf("curfew still active at 07:00 (len=%d)", pm.Len())
	}
	if _, err := eng.Retract(obs.SpanContext{}, "curfew", "h7"); err != nil {
		t.Fatal(err)
	}
	end := sim.Run()
	if pm.Len() != 0 {
		t.Fatalf("retracted instance re-activated (len=%d at %v)", pm.Len(), end)
	}
}

// TestConcurrentChurnAndQuery exercises membership churn racing with
// admission queries and template churn; run under -race.
func TestConcurrentChurnAndQuery(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	const iters = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m := fmt.Sprintf("user churn%d", i%4)
			if _, err := eng.AddMember("eng", m); err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.RemoveMember("eng", m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			host := fmt.Sprintf("h%d", i%3)
			if _, err := eng.Instantiate(obs.SpanContext{}, "quarantine", host); err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.Retract(obs.SpanContext{}, "quarantine", host); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var fv policy.FlowView
		fv.Src.Users = []string{"alice"}
		fv.Dst.Host = "web"
		for i := 0; i < iters*4; i++ {
			pm.Query(&fv)
		}
	}()
	wg.Wait()

	// Steady state: back to the base document's rule set.
	fresh, err := Lower(mustParse(t, eng.Source()), noon)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedTexts(pm.Rules())
	want := compiledTexts(fresh)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("post-churn state diverged\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// programText renders everything a program holds, for before/after
// comparison.
func programText(p *Program) string {
	var b strings.Builder
	b.WriteString(policytext.Format(p.Doc))
	for _, st := range p.Stmts {
		fmt.Fprintf(&b, "%s:", st.Key)
		for _, cr := range st.Rules {
			fmt.Fprintf(&b, " %s", cr.Key)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMembershipChangeCopiesOnWrite: a program the engine applied, or
// handed back as the one a document replaced, never changes afterwards,
// while membership changes and applies race on the engine; run under
// -race, which also catches any write to a shared program.
func TestMembershipChangeCopiesOnWrite(t *testing.T) {
	eng, _ := newEngine(t)
	applied := Compile(mustParse(t, engineDoc))
	if _, _, _, err := eng.Apply(applied); err != nil {
		t.Fatal(err)
	}
	want := programText(applied)
	if _, err := eng.AddMember("eng", "user carol"); err != nil {
		t.Fatal(err)
	}
	_, running, err := eng.Diff(applied)
	if err != nil {
		t.Fatal(err)
	}
	if running == applied || !strings.Contains(programText(running), "carol") {
		t.Fatal("membership change did not replace the running program")
	}
	runningText := programText(running)

	other := Compile(mustParse(t, engineDoc+"allow from group eng to host wiki\n"))
	const iters = 100
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			m := fmt.Sprintf("user churn%d", i%4)
			if _, err := eng.AddMember("eng", m); err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.RemoveMember("servers", "host db"); err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.AddMember("servers", "host db"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			next := applied
			if i%2 == 0 {
				next = other
			}
			if _, _, _, err := eng.Apply(next); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if programText(applied) != want || programText(running) != runningText {
				t.Error("a handed-out program changed")
				return
			}
		}
	}()
	wg.Wait()
	if programText(applied) != want {
		t.Fatalf("applied program changed:\n%s\nwant:\n%s", programText(applied), want)
	}
	if programText(running) != runningText {
		t.Fatalf("replaced program changed:\n%s\nwant:\n%s", programText(running), runningText)
	}
}
