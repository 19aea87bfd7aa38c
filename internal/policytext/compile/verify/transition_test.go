package verify

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// TestVerifyTransitionExact: the crafted two-epoch pair. prev allows web
// traffic into db but denies the kiosk at a higher priority; next keeps
// the allow, drops the deny and adds a brand-new allow. Exactly two
// widenings must surface: the kiosk flows the dropped deny used to block,
// and the new allow's reachability.
func TestVerifyTransitionExact(t *testing.T) {
	prev := mustCompile(t, `
pdp admin priority 100
deny from host kiosk
pdp corp priority 10
allow from host kiosk to host db
allow from host web to host db
`)
	next := mustCompile(t, `
pdp corp priority 10
allow from host kiosk to host db
allow from host web to host db
allow from host web to host mail
`)
	ws := VerifyTransition(prev, next)
	if len(ws) != 2 {
		t.Fatalf("widenings = %+v, want 2", ws)
	}
	// Line 3 of next: kiosk->db was covered by the same allow in prev but
	// blocked by the admin deny (line 3 of prev), which is gone.
	if ws[0].Line != 3 || ws[0].PrevLine != 3 || !strings.Contains(ws[0].Message, "deny") {
		t.Fatalf("widening[0] = %+v", ws[0])
	}
	// Line 5 of next: web->mail is new reachability.
	if ws[1].Line != 5 || ws[1].PrevLine != 0 ||
		!strings.Contains(ws[1].Message, "no previous allow") {
		t.Fatalf("widening[1] = %+v", ws[1])
	}
}

// TestVerifyTransitionNoWidening: identical documents, narrowing edits
// and retained denies produce nothing.
func TestVerifyTransitionNoWidening(t *testing.T) {
	a := `
pdp admin priority 100
deny from host kiosk
pdp corp priority 10
allow from host web to host db
`
	tests := []struct{ name, prev, next string }{
		{"identical", a, a},
		{"narrowing", a, `
pdp admin priority 100
deny from host kiosk
pdp corp priority 10
allow proto tcp from host web to host db
`},
		{"drop-allow", a, `
pdp admin priority 100
deny from host kiosk
pdp corp priority 10
`},
	}
	for _, tt := range tests {
		if ws := VerifyTransition(mustCompile(t, tt.prev), mustCompile(t, tt.next)); len(ws) != 0 {
			t.Errorf("%s: widenings = %+v, want none", tt.name, ws)
		}
	}
}

// TestVerifyTransitionWindowWidening: extending an allow's window is a
// widening even when the rule text otherwise matches.
func TestVerifyTransitionWindowWidening(t *testing.T) {
	prev := mustCompile(t, "pdp p priority 10\nallow from host web to host db between 09:00-17:00\n")
	next := mustCompile(t, "pdp p priority 10\nallow from host web to host db\n")
	ws := VerifyTransition(prev, next)
	if len(ws) != 1 || ws[0].Line != 2 {
		t.Fatalf("widenings = %+v, want the window extension flagged", ws)
	}
	// The reverse (shrinking the window) widens nothing.
	if ws := VerifyTransition(next, prev); len(ws) != 0 {
		t.Fatalf("narrowing flagged: %+v", ws)
	}
}

// deniedInNextLinear is the reference for the indexed deny check: the scan over
// every rule of the next document that the index replaced.
func deniedInNextLinear(nextRules []*vrule) func(d, n *vrule) bool {
	return func(d, n *vrule) bool {
		for _, d2 := range nextRules {
			if d2.action != policy.ActionDeny || d2.prio < n.prio {
				continue
			}
			if d2.mask == d.mask && d2.key == d.key && d2.bits.contains(d.bits) {
				return true
			}
		}
		return false
	}
}

// oneLineEdit changes one rule line of src: drops it, flips its action,
// retargets it at the vault, or widens its window to the whole week.
func oneLineEdit(rng *rand.Rand, src string) string {
	lines := strings.Split(src, "\n")
	var rules []int
	for i, l := range lines {
		if strings.HasPrefix(l, "allow ") || strings.HasPrefix(l, "deny ") {
			rules = append(rules, i)
		}
	}
	if len(rules) == 0 {
		return src
	}
	i := rules[rng.Intn(len(rules))]
	l := lines[i]
	switch rng.Intn(4) {
	case 0:
		lines = append(lines[:i:i], lines[i+1:]...)
	case 1:
		if strings.HasPrefix(l, "allow ") {
			lines[i] = "deny " + strings.TrimPrefix(l, "allow ")
		} else {
			lines[i] = "allow " + strings.TrimPrefix(l, "deny ")
		}
	case 2:
		if j := strings.Index(l, " to "); j >= 0 {
			l = l[:j]
		}
		lines[i] = l + " to host vault"
	default:
		if j := strings.Index(l, " between "); j >= 0 {
			lines[i] = l[:j]
		}
	}
	return strings.Join(lines, "\n")
}

// TestTransitionDenyIndexMatchesScan: the indexed deny check yields the
// same widenings as the linear scan it replaced, over seeded one-line
// edits of a 1000-rule document and over every pair of corpus documents.
func TestTransitionDenyIndexMatchesScan(t *testing.T) {
	var calls, denied int
	check := func(name string, prev, next *compile.Program) {
		t.Helper()
		prevRules, nextRules := analyse(prev).rules, analyse(next).rules
		linear := deniedInNextLinear(nextRules)
		ref := widen(buildIndex(prevRules), denies(prevRules), nextRules, func(d, n *vrule) bool {
			calls++
			if linear(d, n) {
				denied++
				return true
			}
			return false
		})
		got := VerifyTransition(prev, next)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("%s: indexed widenings differ from the scan\nindexed: %+v\nscan:    %+v", name, got, ref)
		}
	}

	// The 1000-rule document with a broad allow at each tier, so dropped
	// or flipped denies open flows a previous allow covered.
	base := bigDoc(1000) + "pdp ops priority 5\nallow to host vault\nallow proto tcp\n"
	baseProg := mustCompile(t, base)
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 60; i++ {
		edited := oneLineEdit(rng, base)
		doc, err := policytext.Parse(strings.NewReader(edited))
		if err != nil {
			continue
		}
		prog := compile.Compile(doc)
		check(fmt.Sprintf("edit %d forward", i), baseProg, prog)
		check(fmt.Sprintf("edit %d backward", i), prog, baseProg)
	}

	ents, err := os.ReadDir(filepath.Join("testdata", "bad"))
	if err != nil {
		t.Fatal(err)
	}
	var corpus []*compile.Program
	for _, e := range ents {
		src := readCorpus(t, e.Name())
		corpus = append(corpus, mustCompile(t, src), mustCompile(t, oneLineEdit(rng, src)))
	}
	for i, prev := range corpus {
		for j, next := range corpus {
			check(fmt.Sprintf("corpus %d->%d", i, j), prev, next)
		}
	}
	t.Logf("deny checks %d, still denied %d", calls, denied)
	if calls == 0 || denied == 0 || denied == calls {
		t.Fatalf("deny check exercised %d times, %d still denied: the edits miss a branch", calls, denied)
	}
}

// TestTransitionCandidatesMatchFullWiden: VerifyTransition examines only
// its candidate allows, yet over seeded one-line edits of a document whose
// denies carve holes in broad allows, in both directions, it reports
// exactly what widen reports over every allow of the next document. The
// edits must include allows that did not change but lost a deny: removing
// a deny widens them, and they are the candidates a delta-only check
// would miss.
func TestTransitionCandidatesMatchFullWiden(t *testing.T) {
	base := bigDoc(1000) + "pdp ops priority 5\nallow to host vault\nallow proto tcp\n"
	baseProg := mustCompile(t, base)
	rng := rand.New(rand.NewSource(44))
	unchanged := 0
	for i := 0; i < 60; i++ {
		doc, err := policytext.Parse(strings.NewReader(oneLineEdit(rng, base)))
		if err != nil {
			continue
		}
		prog := compile.Compile(doc)
		for _, pair := range [][2]*compile.Program{{baseProg, prog}, {prog, baseProg}} {
			prev, next := analyse(pair[0]), analyse(pair[1])
			stillDenied := deniedInNextLinear(next.rules)
			ref := widen(prev.ix, prev.denies, next.rules, stillDenied)
			if got := VerifyTransition(pair[0], pair[1]); fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("edit %d: candidate widenings differ from the full pass\ncandidates: %+v\nfull:       %+v", i, got, ref)
			}
			var twinned []*vrule
			for _, n := range next.rules {
				if n.action == policy.ActionAllow && hasTwin(prev.ix, n) {
					twinned = append(twinned, n)
				}
			}
			unchanged += len(widen(prev.ix, prev.denies, twinned, stillDenied))
		}
	}
	if unchanged == 0 {
		t.Fatal("no edit widened an allow the previous document already held")
	}
	t.Logf("%d widenings of unchanged allows", unchanged)
}
