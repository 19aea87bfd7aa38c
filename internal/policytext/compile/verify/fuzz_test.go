package verify

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// FuzzLowerVerify: any document that parses must verify without panicking,
// every finding must point inside the document (1-based line within
// bounds), ordering must hold, and the self-transition must widen nothing.
func FuzzLowerVerify(f *testing.F) {
	seeds := []string{
		"pdp p priority 10\nallow from host a\n",
		"group eng { user alice; user bob }\ngroup servers { host web; host db }\nrole mail { host mailserver port 143 }\npdp corp priority 50\ntemplate quarantine(h) { deny from host $h; deny to host $h }\nallow proto tcp from group eng to group servers\nallow from group eng to role mail\ndeny from host lobby-kiosk\n",
		"pdp p priority 10\nallow from host a between 09:00-17:00\nallow from host b between 22:00-06:00\nallow from host c days sat-sun\nallow from host d\n",
		"group g0 { user seed0 }\ngroup g1 { user seed1; group g0 }\npdp p priority 10\nallow from group g1 to host db\n",
	}
	if ents, err := os.ReadDir(filepath.Join("testdata", "bad")); err == nil {
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join("testdata", "bad", e.Name()))
			if err == nil {
				seeds = append(seeds, string(b))
			}
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := policytext.Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		lines := strings.Count(src, "\n") + 1
		fs := Document(doc)
		for i, fd := range fs {
			if fd.Line < 1 || fd.Line > lines {
				t.Fatalf("finding line %d outside document (%d lines): %+v", fd.Line, lines, fd)
			}
			if fd.OtherLine < 0 || fd.OtherLine > lines {
				t.Fatalf("counterpart line %d outside document: %+v", fd.OtherLine, fd)
			}
			if i > 0 && fd.Line < fs[i-1].Line {
				t.Fatalf("findings unsorted: %+v", fs)
			}
		}
		p := compile.Compile(doc)
		if ws := VerifyTransition(p, p); len(ws) != 0 {
			t.Fatalf("self-transition widened: %+v", ws)
		}
	})
}
