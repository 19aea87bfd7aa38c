package policytext

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// benchShapedDoc is a document shaped like the repository benchmark's: a
// quarantine template, carved denies, group → role statements, host and ip
// statements with ports and probe lines at the end; with a few multi-line
// blocks, day lists and comments besides.
func benchShapedDoc(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("# benchmark-shaped\npdp bench-quarantine priority 1000\n")
	b.WriteString("template quarantine(h) { deny from host $h; deny to host $h }\n")
	b.WriteString("template isolate(h) {\n  deny from host $h\n  deny to host $h port 22\n}\n")
	b.WriteString("pdp bench-deny priority 500\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "deny proto tcp from host h%03d to host s%03d port 9999\n", i, i)
	}
	b.WriteString("pdp bench-allow priority 100\n")
	for g := 0; g < 10; g++ {
		fmt.Fprintf(&b, "group team%02d { user u%03d; user u%03d }\n", g, 2*g, 2*g+1)
		fmt.Fprintf(&b, "role svc%02d { host s%03d }\n", g, g)
		fmt.Fprintf(&b, "allow proto tcp from group team%02d to role svc%02d\n", g, g)
	}
	b.WriteString("group ops {\n  user root\n  group team00\n}\n")
	for i := 0; i < 60; i++ {
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "allow proto udp from ip 10.1.0.%d to ip 10.2.0.%d port %d\n", i, i, 1024+i)
		case 1:
			fmt.Fprintf(&b, "allow from user u%03d to host s%03d days sat,sun # weekend\n", i, i)
		case 2:
			fmt.Fprintf(&b, "deny from host h%03d to host vault between 22:00-06:00\n", i)
		default:
			fmt.Fprintf(&b, "allow proto tcp from host h%03d to host s%03d port %d\n", i, i, 2000+i)
		}
	}
	for k := 0; k < 16; k++ {
		fmt.Fprintf(&b, "allow proto tcp from host p%02d to host q%02d port %d\n", k, k, 60000+k)
	}
	return b.String()
}

// parseEdit makes one seeded edit: add, remove or move a line; re-space a
// statement or give it a comment; move a statement into or out of a
// block; move a pdp line above a statement; or write a line with an
// error.
func parseEdit(rng *rand.Rand, src string) string {
	lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
	find := func(match func(string) bool) []int {
		var out []int
		for i, l := range lines {
			if match(l) {
				out = append(out, i)
			}
		}
		return out
	}
	pick := func(is []int) int {
		if len(is) == 0 {
			return rng.Intn(len(lines))
		}
		return is[rng.Intn(len(is))]
	}
	stmts := find(func(l string) bool { return strings.HasPrefix(l, "allow ") || strings.HasPrefix(l, "deny ") })
	move := func(from, to int) {
		l := lines[from]
		lines = slices.Delete(lines, from, from+1)
		lines = slices.Insert(lines, min(to, len(lines)), l)
	}
	switch rng.Intn(9) {
	case 0: // add a copy of a statement elsewhere, or a new one
		l := fmt.Sprintf("allow from host n%d to host s%03d", rng.Intn(5), rng.Intn(40))
		if rng.Intn(2) == 0 {
			l = lines[pick(stmts)]
		}
		lines = slices.Insert(lines, rng.Intn(len(lines)+1), l)
	case 1: // remove
		i := pick(stmts)
		lines = slices.Delete(lines, i, i+1)
	case 2: // move
		move(pick(stmts), rng.Intn(len(lines)))
	case 3: // the same statement, spaced otherwise or with a comment
		i := pick(stmts)
		switch rng.Intn(3) {
		case 0:
			lines[i] = "  " + strings.ReplaceAll(lines[i], " ", "  ")
		case 1:
			lines[i] += " # note"
		default:
			lines[i] += " "
		}
	case 4: // a statement into a block (after its opening line)
		opens := find(func(l string) bool { return strings.HasSuffix(l, "{") })
		move(pick(stmts), pick(opens)+1)
	case 5: // a line out of a block (a body or member line) to the top level
		inner := find(func(l string) bool { return strings.HasPrefix(l, "  ") })
		move(pick(inner), rng.Intn(len(lines)))
	case 6: // a pdp line above a statement
		pdps := find(func(l string) bool { return strings.HasPrefix(l, "pdp ") })
		move(pick(pdps), pick(stmts))
	case 7: // a statement written with an error
		bad := []string{"allow from", "deny to bogus x", "allow proto sctp from host a", "allow from host a }",
			"deny from host a between 25:00-26:00", "}", "group broken {", "pdp late priority x",
			"allow from group team00 group team01"}
		lines = slices.Insert(lines, rng.Intn(len(lines)+1), bad[rng.Intn(len(bad))])
	default: // a line a statement's text is a prefix of
		i := pick(stmts)
		lines[i] += " port 7"
	}
	return strings.Join(lines, "\n") + "\n"
}

// corpus returns the policy verifier's corpus and the example documents.
func corpus(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("compile", "verify", "testdata", "bad", "*.pol"))
	if err != nil {
		t.Fatal(err)
	}
	more, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*", "policy.pol"))
	var out []string
	for _, p := range append(paths, more...) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	if len(out) < 6 {
		t.Fatalf("found %d corpus documents", len(out))
	}
	return out
}

// checkParseAgainst parses src against prev and from scratch, failing
// unless both give the same document and the same errors.
func checkParseAgainst(t testing.TB, name, src string, prev *Document) *Document {
	got, gerr := ParseAgainst(strings.NewReader(src), prev)
	want, werr := Parse(strings.NewReader(src))
	if !reflect.DeepEqual(gerr, werr) {
		t.Fatalf("%s: errors differ from a fresh parse\n got: %v\nwant: %v\nsource:\n%s", name, gerr, werr, src)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: document differs from a fresh parse\n got: %+v\nwant: %+v\nsource:\n%s", name, got, want, src)
	}
	return got
}

// TestParseAgainstMatchesParse: seeded edits of a benchmark-shaped
// document and of every corpus document, each parsed against the last
// document that parsed, deep-equal a fresh Parse, errors included; and an
// unchanged re-parse shares every statement's parsed values.
func TestParseAgainstMatchesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	bases := append([]string{benchShapedDoc(rng)}, corpus(t)...)
	edits, failed := 0, 0
	for bi, base := range bases {
		prev := checkParseAgainst(t, fmt.Sprintf("base %d", bi), base, nil)
		src := base
		for step := 0; step < 60; step++ {
			next := parseEdit(rng, src)
			if rng.Intn(4) == 0 {
				next = parseEdit(rng, next)
			}
			name := fmt.Sprintf("base %d step %d", bi, step)
			if doc := checkParseAgainst(t, name, next, prev); doc != nil {
				prev, src = doc, next
			} else {
				failed++
			}
			edits++
		}
	}
	t.Logf("%d edits, %d with errors", edits, failed)
	if failed < edits/10 || failed > edits*9/10 {
		t.Fatalf("%d of %d edits failed to parse: the edits do not cover both outcomes", failed, edits)
	}

	src := benchShapedDoc(rng)
	prev, _ := Parse(strings.NewReader(src))
	again := checkParseAgainst(t, "unchanged", src, prev)
	for i, rs := range again.Rules {
		if p := prev.Rules[i].Props.EtherType; p != nil && rs.Props.EtherType != p {
			t.Fatalf("line %d was parsed again, not taken from the previous document", rs.Line)
		}
	}
}

// FuzzParseAgainst: whatever the previous document, parsing a source
// against it gives what a fresh Parse gives, errors included.
func FuzzParseAgainst(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	base := benchShapedDoc(rng)
	f.Add(base, parseEdit(rng, base))
	f.Add(sample, strings.Replace(sample, "pdp security priority 900\n", "", 1))
	f.Add("pdp a priority 1\nallow from host x\n", "allow from host x\npdp a priority 1\nallow from host x\n")
	f.Add("pdp a priority 1\nallow from host x\n", "pdp a priority 1\ntemplate t(h) {\nallow from host x\n}\n")
	f.Add("pdp a priority 1\ndeny from host x days sat,sun\n", "pdp a priority 1\ndeny from host x days sat , sun\n")
	f.Fuzz(func(t *testing.T, prevSrc, src string) {
		prev, _ := Parse(strings.NewReader(prevSrc))
		checkParseAgainst(t, "fuzz", src, prev)
	})
}
