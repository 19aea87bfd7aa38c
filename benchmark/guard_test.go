package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const module = "github.com/dfi-sdn/dfi"

// facade is what the benchmark may import of the repository it measures:
// the assembled system, the codecs and the layer facades. Everything else —
// in particular the packages that implement one of two relays or one of two
// policy lookups, and the repository's older benchmark rigs — is off
// limits, so either implementation of a pair can be deleted, or a default
// flipped, without a benchmark file changing.
var facade = map[string]bool{
	module:                                         true,
	module + "/internal/openflow":                  true,
	module + "/internal/netpkt":                    true,
	module + "/internal/core/entity":               true,
	module + "/internal/core/policy":               true,
	module + "/internal/core/pcp":                  true,
	module + "/internal/policytext":                true,
	module + "/internal/policytext/compile":        true,
	module + "/internal/policytext/compile/verify": true,
	module + "/internal/bus":                       true,
	module + "/internal/sensors":                   true,
	module + "/internal/netpoll":                   true,
}

// forbidden are the ways of selecting an implementation: options, flags,
// package selectors and the per-rule write API. They are spelled in pieces
// so that this file passes its own test.
var forbidden = []string{
	"With" + "EventLoop", "With" + "DeltaCompilation", "With" + "ProactivePush", "With" + "WildcardCaching",
	"-evloop" + "-workers", "evloop" + ".", "classifier" + ".", "/v1/" + "rules",
	"proxy/" + "evloop", "policy/" + "classifier", "relay" + "bench", "internal/" + "experiments", "internal/" + "scenario",
}

func benchmarkFiles(t *testing.T) []string {
	t.Helper()
	files := []string{filepath.Join("..", "BENCHMARK.json")}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestImportsStayOnTheFacade(t *testing.T) {
	fset := token.NewFileSet()
	for _, path := range benchmarkFiles(t) {
		if !strings.HasSuffix(path, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, module) || strings.HasPrefix(p, module+"/benchmark") {
				continue
			}
			if !facade[p] {
				t.Errorf("%s imports %s, which is not a facade package", path, p)
			}
		}
	}
}

func TestNoFileNamesATwin(t *testing.T) {
	for _, path := range benchmarkFiles(t) {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, word := range forbidden {
			if strings.Contains(string(body), word) {
				t.Errorf("%s mentions %q: the benchmark must not select an implementation", path, word)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, and the tables the program prints from, which it runs, the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, got.Bound)
		}
		seen[m.Name] = true
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s is used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("BENCHMARK.json: setup_s listed=%t paths=%v run_seconds=%d", seen["setup_s"], spec.Paths, spec.RunSeconds)
	}
}
