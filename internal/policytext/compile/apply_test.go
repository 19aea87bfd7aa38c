package compile

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/obs"
)

// TestEngineMutationIsOneApply: a multi-line SetSource delta, a 2-rule
// template instance and a group edit each land as one Manager.ApplyCtx —
// the epoch advances by exactly one and the FlushFunc runs exactly once,
// with a sorted, duplicate-free id list. A reader polling the manager's
// snapshot while SetSource alternates between two documents sees exactly
// one document's lowering every time, never a mix (run under -race).
func TestEngineMutationIsOneApply(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var flushes [][]policy.RuleID
	pm.SetFlushFunc(func(_ obs.SpanContext, ids []policy.RuleID) {
		mu.Lock()
		defer mu.Unlock()
		flushes = append(flushes, append([]policy.RuleID(nil), ids...))
	})

	// -kiosk +kiosk2, a deny above the eng allows, two allows from ops.
	edited := strings.Replace(engineDoc, "host lobby-kiosk\n", "host lobby-kiosk2\n", 1) +
		"deny to ip 10.0.0.66\nallow from host ops to group servers\n"
	steps := []struct {
		name           string
		apply          func() (Delta, error)
		insert, revoke int
	}{
		{"SetSource", func() (Delta, error) { return eng.SetSource(edited) }, 4, 1},
		{"Instantiate", func() (Delta, error) { return eng.Instantiate(obs.SpanContext{}, "quarantine", "h7") }, 2, 0},
		{"AddMember", func() (Delta, error) { return eng.AddMember("eng", "user carol") }, 3, 0},
	}
	for _, st := range steps {
		mu.Lock()
		flushes = nil
		mu.Unlock()
		before := pm.Epoch()
		d, err := st.apply()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if len(d.Insert) != st.insert || len(d.Revoke) != st.revoke {
			t.Fatalf("%s: delta = +%d/-%d, want +%d/-%d", st.name, len(d.Insert), len(d.Revoke), st.insert, st.revoke)
		}
		if got := pm.Epoch() - before; got != 1 {
			t.Fatalf("%s: epoch advanced by %d, want 1", st.name, got)
		}
		mu.Lock()
		got := flushes
		mu.Unlock()
		if len(got) != 1 {
			t.Fatalf("%s: %d flushes, want 1: %v", st.name, len(got), got)
		}
		ids := got[0]
		if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
			t.Fatalf("%s: flush ids %v not sorted and duplicate-free", st.name, ids)
		}
		for _, r := range d.Revoke {
			if !slices.Contains(ids, r.ID) {
				t.Fatalf("%s: flush ids %v miss revoked rule %d", st.name, ids, r.ID)
			}
		}
	}

	// Several lines differ between the two documents: a group member, a
	// removed statement and an added one.
	docA := engineDoc
	docB := strings.Replace(strings.Replace(engineDoc, "user bob", "user dave", 1), "deny from host lobby-kiosk\n", "", 1) +
		"deny to ip 10.0.0.66\n"
	lowering := func(src string) string {
		crs, err := Lower(mustParse(t, src), noon)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(compiledTexts(crs), "\n")
	}
	want := map[string]bool{lowering(docA): true, lowering(docB): true}
	eng, pm = newEngine(t)
	if _, err := eng.SetSource(docA); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := pm.Snapshot()
			rules := make([]policy.Rule, 0, snap.Len())
			for _, r := range snap.All() {
				rules = append(rules, *r)
			}
			if got := strings.Join(sortedTexts(rules), "\n"); !want[got] {
				t.Errorf("epoch %d: reader saw a mix of the two documents:\n%s", snap.Epoch(), got)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		src := docB
		if i%2 == 1 {
			src = docA
		}
		if _, err := eng.SetSource(src); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestEngineForgetsRulesRevokedBehindItsBack: an in-process caller
// revoking engine-owned ids wedges no later apply, and the engine stops
// counting those rules as installed: retracting a template instance whose
// rule is already gone revokes the rest, and the next SetSource re-inserts
// what the document still asks for.
func TestEngineForgetsRulesRevokedBehindItsBack(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Instantiate(obs.SpanContext{}, "quarantine", "h7"); err != nil {
		t.Fatal(err)
	}
	for _, r := range pm.Rules() {
		if r.Src.Host == "lobby-kiosk" || r.Src.Host == "h7" {
			if err := pm.Revoke(r.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	d, err := eng.Retract(obs.SpanContext{}, "quarantine", "h7")
	if err != nil || len(d.Insert) != 0 || len(d.Revoke) != 1 {
		t.Fatalf("retract after an outside revoke: delta +%d/-%d, err %v, want +0/-1", len(d.Insert), len(d.Revoke), err)
	}
	d, err = eng.SetSource(engineDoc)
	if err != nil || len(d.Insert) != 1 || len(d.Revoke) != 0 || d.Insert[0].Src.Host != "lobby-kiosk" {
		t.Fatalf("reload after an outside revoke: delta %+v, err %v, want the kiosk rule re-inserted", d, err)
	}
	if pm.Len() != 7 {
		t.Fatalf("manager holds %d rules, want the document's 7", pm.Len())
	}
}

// TestEngineReprobesAfterARevokeDuringItsFlush: a rule revoked behind the
// engine's back while the engine's own apply is still flushing leaves the
// manager's epoch past the one that apply published, so the next apply
// probes again, forgets the rule and re-inserts it.
func TestEngineReprobesAfterARevokeDuringItsFlush(t *testing.T) {
	eng, pm := newEngine(t)
	if _, err := eng.SetSource(engineDoc); err != nil {
		t.Fatal(err)
	}
	var kiosk policy.RuleID
	for _, r := range pm.Rules() {
		if r.Src.Host == "lobby-kiosk" {
			kiosk = r.ID
		}
	}
	revoked := false
	pm.SetFlushFunc(func(obs.SpanContext, []policy.RuleID) {
		if !revoked {
			revoked = true
			if err := pm.Revoke(kiosk); err != nil {
				t.Error(err)
			}
		}
	})
	edited := engineDoc + "allow from host web to host wiki\n"
	if d, err := eng.SetSource(edited); err != nil || len(d.Insert) != 1 || !revoked {
		t.Fatalf("apply with a revoke during its flush: delta %+v, err %v, revoked %v", d, err, revoked)
	}
	d, err := eng.SetSource(edited)
	if err != nil || len(d.Insert) != 1 || len(d.Revoke) != 0 || d.Insert[0].Src.Host != "lobby-kiosk" {
		t.Fatalf("reload: delta %+v, err %v, want the kiosk rule re-inserted", d, err)
	}
}
