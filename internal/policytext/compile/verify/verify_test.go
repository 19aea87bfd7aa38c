package verify

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

func mustParse(t *testing.T, src string) *policytext.Document {
	t.Helper()
	doc, err := policytext.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func mustCompile(t *testing.T, src string) *compile.Program {
	t.Helper()
	return compile.Compile(mustParse(t, src))
}

func readCorpus(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "bad", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fsum is a finding's summary for exact-match assertions.
func fsum(f Finding) string {
	return fmt.Sprintf("%s/%s@%d", f.Check, f.Severity, f.Line)
}

func sums(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fsum(f)
	}
	return out
}

// TestBadCorpus checks that every seeded bad document produces exactly
// the expected findings — all six check classes are represented across
// the corpus (shadow, conflict, redundant, deadwindow, structural here;
// the cross-epoch check in transition_test.go).
func TestBadCorpus(t *testing.T) {
	tests := []struct {
		file string
		want []string
	}{
		{"shadow.pol", []string{"shadow/error@4"}},
		{"conflict.pol", []string{"conflict/warn@3"}},
		{"redundant.pol", []string{"redundant/warn@3"}},
		{"deadwindow.pol", []string{"deadwindow/warn@4", "deadwindow/error@5"}},
		{"structural.pol", []string{
			"structural/warn@1", // ghosts empty
			"structural/warn@2", // relics unreferenced
			"structural/warn@3", // stale unreferenced
			"structural/warn@5", // padded param extra unused
		}},
		{"shadowtemplate.pol", []string{"shadow/error@4", "shadow/error@5"}},
	}
	for _, tt := range tests {
		t.Run(tt.file, func(t *testing.T) {
			doc := mustParse(t, readCorpus(t, tt.file))
			got := sums(Document(doc))
			if strings.Join(got, " ") != strings.Join(tt.want, " ") {
				t.Fatalf("findings = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestCleanDocuments: the golden documents from the compile suite and the
// README produce zero findings — the checks must not cry wolf on the
// idiomatic broad-deny-plus-specific-allow shape.
func TestCleanDocuments(t *testing.T) {
	docs := map[string]string{
		"engine": `
group eng { user alice; user bob }
group servers { host web; host db }
role mail { host mailserver port 143 }
pdp corp priority 50
template quarantine(h) { deny from host $h; deny to host $h }
allow proto tcp from group eng to group servers
allow from group eng to role mail
deny from host lobby-kiosk
`,
		"readme": `
group eng { user alice; user bob; group contractors }
group contractors { user carol }
role mail { host mailserver port 143 }
pdp corp priority 50
template quarantine(h) { deny from host $h; deny to host $h }
allow proto tcp from group eng to role mail between 09:00-17:00 days mon-fri
deny from host lobby-kiosk
`,
		"windows": `
pdp p priority 10
allow from host a between 09:00-17:00
allow from host b between 22:00-06:00
allow from host c days sat-sun
allow from host d
`,
	}
	for name, src := range docs {
		if fs := Document(mustParse(t, src)); len(fs) != 0 {
			t.Errorf("%s: unexpected findings: %v", name, fs)
		}
	}
}

// TestComplementaryWindowUnionShadow: two higher-priority windowed allows
// whose windows jointly cover the week shadow a deny that neither does
// alone.
func TestComplementaryWindowUnionShadow(t *testing.T) {
	doc := mustParse(t, `
pdp admin priority 90
allow from host web between 08:00-20:00
allow from host web between 20:00-08:00
pdp corp priority 10
deny from host web to host db
`)
	fs := Document(doc)
	if len(fs) != 1 || fs[0].Check != CheckShadow || fs[0].Severity != SevError || fs[0].Line != 6 {
		t.Fatalf("findings = %v, want one shadow error at line 6", fs)
	}
	// Narrow either window and the union no longer covers: no finding.
	doc = mustParse(t, `
pdp admin priority 90
allow from host web between 08:00-20:00
allow from host web between 21:00-08:00
pdp corp priority 10
deny from host web to host db
`)
	if fs := Document(doc); len(fs) != 0 {
		t.Fatalf("incomplete union still flagged: %v", fs)
	}
}

// TestFindingsSortedByLine: diagnostics come back ordered by source line.
func TestFindingsSortedByLine(t *testing.T) {
	doc := mustParse(t, `
group unused1 { host x }
pdp admin priority 100
allow from host web
pdp corp priority 10
deny from host web to host db
deny from host web to host mail
group unused2 { host y }
`)
	fs := Document(doc)
	if len(fs) < 4 {
		t.Fatalf("findings = %v, want 4", fs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].Line < fs[i-1].Line {
			t.Fatalf("findings out of line order: %v", sums(fs))
		}
	}
}

// TestTemplateProvenance: a finding inside a template body carries the
// placeholder instance tag and the body statement's own source line, and
// group fan-out findings carry the via chain.
func TestTemplateProvenance(t *testing.T) {
	doc := mustParse(t, readCorpus(t, "shadowtemplate.pol"))
	fs := Document(doc)
	var tf *Finding
	for i := range fs {
		if fs[i].Template != "" {
			tf = &fs[i]
		}
	}
	if tf == nil {
		t.Fatalf("no template-tagged finding in %v", fs)
	}
	if tf.Template != "quarantine($h)" || tf.Line != 4 || tf.Stmt != "deny from host $h to host db" {
		t.Fatalf("template finding = %+v", *tf)
	}

	doc = mustParse(t, `
group kiosks { host lobby; host atrium }
pdp admin priority 100
allow to host db
pdp corp priority 10
deny from group kiosks to host db
`)
	fs = Document(doc)
	if len(fs) != 1 || fs[0].Via == "" || !strings.Contains(fs[0].Via, "group kiosks") {
		t.Fatalf("fan-out finding missing via chain: %v", fs)
	}
}

// TestShadowInvariantUnderFormat: the property from the satellite list —
// reformatting a document (canonical Format, then reparse) never changes
// which statements are flagged, even though line numbers shift.
func TestShadowInvariantUnderFormat(t *testing.T) {
	for _, file := range []string{
		"shadow.pol", "conflict.pol", "redundant.pol",
		"deadwindow.pol", "structural.pol", "shadowtemplate.pol",
	} {
		doc := mustParse(t, readCorpus(t, file))
		before := Document(doc)
		redoc := mustParse(t, policytext.Format(doc))
		after := Document(redoc)
		key := func(fs []Finding) []string {
			out := make([]string, len(fs))
			for i, f := range fs {
				out[i] = fmt.Sprintf("%s|%s|%s|%s", f.Check, f.Severity, f.Stmt, f.Template)
			}
			sort.Strings(out)
			return out
		}
		b, a := key(before), key(after)
		if strings.Join(b, "\n") != strings.Join(a, "\n") {
			t.Errorf("%s: findings changed under Format round-trip:\nbefore %v\nafter  %v", file, b, a)
		}
	}
}

// TestNeverActiveWindow: a zero-width clock interval is unconstructible
// from text but representable programmatically; the verifier must flag
// it rather than silently compiling a rule that never fires.
func TestNeverActiveWindow(t *testing.T) {
	doc := &policytext.Document{
		PDPs: []policytext.PDPDecl{{Name: "p", Priority: 10, Line: 1}},
		Rules: []policytext.RuleStmt{{
			PDP:    "p",
			Action: policy.ActionAllow,
			Src:    policytext.EndpointRef{Spec: policy.EndpointSpec{Host: "a"}},
			Window: policytext.Window{HasTime: true, StartMin: 300, EndMin: 300},
			Line:   2,
		}},
	}
	fs := Document(doc)
	if len(fs) != 1 || fs[0].Check != CheckDeadWindow || fs[0].Severity != SevError {
		t.Fatalf("findings = %v, want one deadwindow error", fs)
	}
}

// TestCheckGatesSetSource: the engine hook rejects error-severity
// documents atomically — no PDP registered, no rule inserted, and the
// ErrorList carries the finding's line — while a warning-only document
// applies and a subsequent good document still works.
func TestCheckGatesSetSource(t *testing.T) {
	pm := policy.NewManager()
	eng := compile.NewEngine(pm, nil)
	eng.SetCheck(Gate)

	bad := readCorpus(t, "shadow.pol")
	if _, err := eng.SetSource(bad); err == nil {
		t.Fatal("error-severity document accepted")
	} else {
		list := policytext.AsErrorList(err)
		if len(list) != 1 || list[0].Line != 4 || !strings.Contains(list[0].Msg, "[shadow]") {
			t.Fatalf("gate error = %v", err)
		}
	}
	if pm.Len() != 0 {
		t.Fatalf("rules leaked through rejected apply: %d", pm.Len())
	}
	if _, ok := pm.PDPPriority("admin"); ok {
		t.Fatal("pdp registered by rejected apply")
	}

	warnOnly := readCorpus(t, "conflict.pol")
	if _, err := eng.SetSource(warnOnly); err != nil {
		t.Fatalf("warning-only document rejected: %v", err)
	}
	if pm.Len() != 2 {
		t.Fatalf("rules after warn-only apply = %d, want 2", pm.Len())
	}
}

// TestCheckNilOnClean mirrors the gate's contract for clean documents.
func TestCheckNilOnClean(t *testing.T) {
	doc := mustParse(t, "pdp p priority 10\nallow from host a\n")
	if err := Check(doc); err != nil {
		t.Fatalf("clean document gated: %v", err)
	}
}
