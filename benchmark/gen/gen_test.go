package gen

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/policytext/compile/verify"
)

func mustNew(t *testing.T, seed int64) *Inputs {
	t.Helper()
	in, err := New(seed)
	if err != nil {
		t.Fatalf("New(%d): %v", seed, err)
	}
	return in
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	if _, err := mustNew(t, 7).Write(a); err != nil {
		t.Fatal(err)
	}
	if _, err := mustNew(t, 7).Write(b); err != nil {
		t.Fatal(err)
	}
	fa, fb := readDir(t, a), readDir(t, b)
	if len(fa) != 5 || len(fb) != len(fa) {
		t.Fatalf("want 5 input files in each directory, got %d and %d", len(fa), len(fb))
	}
	for name, body := range fa {
		if !bytes.Equal(body, fb[name]) {
			t.Errorf("%s differs between two generations of seed 7", name)
		}
	}
	if mustNew(t, 8).Policy == mustNew(t, 7).Policy {
		t.Error("seeds 7 and 8 generated the same policy document")
	}
}

// TestDocumentIsClean holds the generated document to the system's own
// front end, on two seeds: it parses, the verifier has nothing to say (so
// nothing but warnings-free input reaches dfid), and it lowers to exactly
// the rules the oracle was built from.
func TestDocumentIsClean(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		in := mustNew(t, seed)
		doc, err := policytext.Parse(strings.NewReader(in.Policy))
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if err := verify.Check(doc); err != nil {
			t.Fatalf("seed %d: verify.Check: %v", seed, err)
		}
		for _, f := range verify.Document(doc) {
			t.Errorf("seed %d: verifier finding: %v", seed, f)
		}
		lowered, err := compile.Lower(doc, time.Unix(0, 0))
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		if len(lowered) != len(in.Rules) {
			t.Errorf("seed %d: document lowers to %d rules, the oracle holds %d", seed, len(lowered), len(in.Rules))
		}
		if len(in.Rules) < 900 || len(in.Rules) > 1100 {
			t.Errorf("seed %d: %d lowered rules, want about 1000", seed, len(in.Rules))
		}
		denies := 0
		for _, r := range in.Rules {
			if !r.Allow {
				denies++
			}
		}
		if share := float64(denies) / float64(len(in.Rules)); share < 0.15 || share > 0.25 {
			t.Errorf("seed %d: %.0f%% of the rules are denies, want about 20%%", seed, 100*share)
		}
		for _, p := range in.Probes {
			if _, err := policytext.Parse(strings.NewReader(in.PolicyWithout(p.Line))); err != nil {
				t.Errorf("seed %d: document without %q does not parse: %v", seed, p.Line, err)
			}
			if strings.Contains(in.PolicyWithout(p.Line), p.Line) {
				t.Errorf("seed %d: PolicyWithout left %q in place", seed, p.Line)
			}
		}
	}
}

func TestOracleSemantics(t *testing.T) {
	in := mustNew(t, 1)
	p := in.Probes[0]
	if !in.Verdict(p.Flow, "", -1) {
		t.Error("probe flow denied under the full policy")
	}
	if in.Verdict(p.Flow, p.Line, -1) {
		t.Error("probe flow allowed with its line removed (default deny)")
	}
	if in.Verdict(p.Flow, "", p.Src) || in.Verdict(p.Flow, "", p.Dst) {
		t.Error("probe flow allowed while an endpoint is quarantined")
	}
	// A carved flow shares its endpoints with an allowed one; only the
	// higher-priority deny on the carved port separates them.
	carved := 0
	for _, d := range in.Deny {
		if d.DPort != carvedPort {
			continue
		}
		carved++
		open := d
		open.DPort = servicePort
		if !in.Verdict(open, "", -1) {
			t.Errorf("flow %+v beside carved flow %+v should be allowed", open, d)
		}
	}
	if carved != groupCarves+hostCarves+ipCarves {
		t.Errorf("%d carved flows, want %d", carved, groupCarves+hostCarves+ipCarves)
	}
}
