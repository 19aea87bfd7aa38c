package admin

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/policytext/compile/verify"
)

// referenceResponse answers a policy request through the pipeline that
// re-derives everything from text: it reads the running document's
// source before the apply, applies the body through SetSource (or diffs
// it), and annotates with verify.Document of the parsed body and the
// transition from the running document formatted and parsed again.
func referenceResponse(t *testing.T, eng *compile.Engine, src string, dry bool) (int, PolicyDeltaJSON) {
	t.Helper()
	prevSrc := eng.Source()
	var (
		d   compile.Delta
		err error
	)
	if dry {
		var doc *policytext.Document
		if doc, err = policytext.Parse(strings.NewReader(src)); err == nil {
			d, _, err = eng.Diff(compile.Compile(doc))
		}
	} else {
		d, err = eng.SetSource(src)
	}
	if err != nil {
		return http.StatusUnprocessableEntity, PolicyDeltaJSON{}
	}
	next, err := policytext.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := policytext.Parse(strings.NewReader(prevSrc))
	if err != nil {
		t.Fatal(err)
	}
	out := fromDelta(d, dry)
	out.Findings = verify.Document(next)
	out.Widening = verify.VerifyTransition(compile.Compile(prev), compile.Compile(next))
	return http.StatusOK, out
}

// oneLineEdit changes one rule line of src: drops it, flips its action,
// or retargets it at the vault.
func oneLineEdit(rng *rand.Rand, src string) string {
	lines := strings.Split(src, "\n")
	var rules []int
	for i, l := range lines {
		if strings.HasPrefix(l, "allow ") || strings.HasPrefix(l, "deny ") {
			rules = append(rules, i)
		}
	}
	i := rules[rng.Intn(len(rules))]
	l := lines[i]
	switch rng.Intn(3) {
	case 0:
		lines = append(lines[:i:i], lines[i+1:]...)
	case 1:
		if strings.HasPrefix(l, "allow ") {
			lines[i] = "deny " + strings.TrimPrefix(l, "allow ")
		} else {
			lines[i] = "allow " + strings.TrimPrefix(l, "deny ")
		}
	default:
		if j := strings.Index(l, " to "); j >= 0 {
			l = l[:j]
		}
		lines[i] = l + " to host vault"
	}
	return strings.Join(lines, "\n")
}

// canonical returns src in the form GET /v1/policy serves it, so line
// numbers in the running document and in its formatted text agree.
func canonical(t *testing.T, src string) string {
	t.Helper()
	doc, err := policytext.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return policytext.Format(doc)
}

// TestPolicyResponsesMatchReferencePipeline: for the verifier corpus and
// seeded one-line edits of a 1000-rule document, every PUT, dry-run PUT
// and diff answers exactly what the text pipeline answers on a twin
// system fed the same requests: status, delta, findings and widening.
// Membership changes between requests check that widening compares
// against the document as changed.
func TestPolicyResponsesMatchReferencePipeline(t *testing.T) {
	sys, h := newBenchSystem(t)
	ref, _ := newBenchSystem(t)
	refEng := ref.PolicyEngine()

	corpusDir := filepath.Join("..", "policytext", "compile", "verify", "testdata", "bad")
	ents, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, canonical(t, string(b)))
	}
	grouped := canonical(t, "group eng { user alice }\npdp corp priority 10\nallow from group eng to host vault\ndeny from host web to host vault\n")
	docs = append(docs, grouped)
	big := canonical(t, bigPolicy(1000))
	docs = append(docs, big)
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 6; i++ {
		docs = append(docs, canonical(t, oneLineEdit(rng, big)))
	}

	step := func(name, method, path, src string, dry bool) {
		t.Helper()
		code, body := serveJSON(h, method, path, PolicyDocJSON{Source: src})
		wantCode, want := referenceResponse(t, refEng, src, dry)
		if code != wantCode {
			t.Fatalf("%s: status %d, reference %d: %s", name, code, wantCode, body)
		}
		if code != http.StatusOK {
			return
		}
		var got PolicyDeltaJSON
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		var wantRT PolicyDeltaJSON
		_ = json.Unmarshal(wantJSON, &wantRT)
		if !reflect.DeepEqual(got, wantRT) {
			t.Fatalf("%s: response differs from the reference\n got: %s\nwant: %s", name, body, wantJSON)
		}
	}
	for i, src := range docs {
		step(fmt.Sprintf("doc %d dry-run", i), http.MethodPut, "/v1/policy?dryRun=1", src, true)
		step(fmt.Sprintf("doc %d diff", i), http.MethodPost, "/v1/policy/diff", src, true)
		step(fmt.Sprintf("doc %d put", i), http.MethodPut, "/v1/policy", src, false)
		if src == grouped {
			for _, eng := range []*compile.Engine{sys.PolicyEngine(), refEng} {
				if _, err := eng.AddMember("eng", "host web"); err != nil {
					t.Fatal(err)
				}
			}
			step("after membership change", http.MethodPost, "/v1/policy/diff", grouped, true)
		}
	}
}

// TestPolicyPutWidensAgainstReplacedDocument: a document applied between
// the start of a PUT and its apply is the one the PUT replaces, so the
// widening names only what the PUT itself opens. The gate applies the
// intervening document on its first call, outside the engine lock, as a
// concurrent PUT would.
func TestPolicyPutWidensAgainstReplacedDocument(t *testing.T) {
	sys, h := newBenchSystem(t)
	eng := sys.PolicyEngine()
	const base = "pdp p priority 10\nallow from host a to host b\n"
	const between = base + "allow from host c to host d\n"
	const next = between + "allow from host e to host f\n"
	if code, body := serveJSON(h, http.MethodPut, "/v1/policy", PolicyDocJSON{Source: base}); code != http.StatusOK {
		t.Fatalf("PUT base = %d: %s", code, body)
	}
	var interleaved atomic.Bool
	eng.SetCheck(func(p *compile.Program) ([]verify.Finding, error) {
		if interleaved.CompareAndSwap(false, true) {
			if _, err := eng.SetSource(between); err != nil {
				t.Error(err)
			}
		}
		return verify.Gate(p)
	})
	code, body := serveJSON(h, http.MethodPut, "/v1/policy", PolicyDocJSON{Source: next})
	if code != http.StatusOK {
		t.Fatalf("PUT next = %d: %s", code, body)
	}
	var got PolicyDeltaJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Insert) != 1 || len(got.Widening) != 1 || !strings.Contains(got.Widening[0].Rule, "host e") {
		t.Fatalf("PUT after an interleaved apply: insert %+v, widening %+v; want only e->f", got.Insert, got.Widening)
	}
}
