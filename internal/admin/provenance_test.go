package admin

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

// countingSwitch counts the flow-mods the PCP writes to it.
type countingSwitch struct{ mods atomic.Int64 }

func (s *countingSwitch) WriteFlowMod(*openflow.FlowMod) error {
	s.mods.Add(1)
	return nil
}

// TestMovedStatementKeepsOneProvenance: a PUT that only moves statements
// to other lines changes no rule and writes nothing to a switch, but
// publishes one epoch in which the manager's rules — Manager.Rules (GET
// /v1/rules), Rule.String and so the audit records — name the lines that
// GET /v1/policy/compiled names, under the same ids.
func TestMovedStatementKeepsOneProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	sys, client := newTestServerOpts(t, []dfi.Option{dfi.WithAuditLog(path, 0)}, nil)
	sw := &countingSwitch{}
	sys.PCP().AttachSwitch(7, sw)
	const (
		moved   = "allow from ip 10.0.0.1 to ip 10.0.0.2"
		grouped = "allow from group eng to host mail"
	)
	before := "group eng { user alice; user bob }\npdp corp priority 50\n" + moved + "\n" + grouped + "\ndeny from host kiosk\n"
	if _, err := client.ApplyPolicy(before, false); err != nil {
		t.Fatal(err)
	}
	admitFlow(sys.PCP(), 43000)
	if sw.mods.Load() == 0 {
		t.Fatal("the admitted flow installed nothing")
	}
	ids := map[uint64]bool{}
	for _, r := range sys.Policy().Rules() {
		ids[uint64(r.ID)] = true
	}

	// Swap the two statements and push them down by a comment and a blank.
	after := "group eng { user alice; user bob }\npdp corp priority 50\n# moved\n\n" + grouped + "\n" + moved + "\ndeny from host kiosk\n"
	epoch, writes := sys.Policy().Epoch(), sw.mods.Load()
	d, err := client.ApplyPolicy(after, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert)+len(d.Revoke) != 0 {
		t.Fatalf("a move-only PUT changed rules: %+v", d)
	}
	if got := sys.Policy().Epoch(); got != epoch+1 {
		t.Fatalf("a move-only PUT moved the epoch from %d to %d, want one step", epoch, got)
	}
	if got := sw.mods.Load(); got != writes {
		t.Fatalf("a move-only PUT wrote %d flow-mods", got-writes)
	}

	compiled, err := client.CompiledPolicy()
	if err != nil {
		t.Fatal(err)
	}
	stored, err := client.Rules()
	if err != nil {
		t.Fatal(err)
	}
	origin := map[uint64]string{}
	for _, r := range stored {
		origin[r.ID] = r.Origin
	}
	if len(stored) != len(ids) || len(compiled) != len(ids) {
		t.Fatalf("%d stored and %d compiled rules, want %d", len(stored), len(compiled), len(ids))
	}
	lines := map[string]int{grouped: 5, moved: 6}
	for _, cr := range compiled {
		if !ids[cr.ID] {
			t.Fatalf("rule %d has a new id", cr.ID)
		}
		if want, ok := lines[cr.Provenance.Stmt]; ok && cr.Provenance.Line != want {
			t.Fatalf("compiled view puts %q on line %d, want %d", cr.Provenance.Stmt, cr.Provenance.Line, want)
		}
		if origin[cr.ID] != cr.Origin || !strings.HasPrefix(cr.Origin, fmt.Sprintf("line %d", cr.Provenance.Line)) {
			t.Fatalf("rule %d: the manager holds origin %q, the compiled view %q on line %d",
				cr.ID, origin[cr.ID], cr.Origin, cr.Provenance.Line)
		}
		r, ok := sys.Policy().Get(policy.RuleID(cr.ID))
		if !ok || !strings.HasSuffix(r.String(), " <- "+cr.Origin) {
			t.Fatalf("rule %d renders as %q, want its origin %q", cr.ID, r.String(), cr.Origin)
		}
	}

	// Revoking the moved statement audits it under its new line.
	if _, err := client.ApplyPolicy(strings.Replace(after, moved+"\n", "", 1), false); err != nil {
		t.Fatal(err)
	}
	recs, err := client.Audit(64)
	if err != nil {
		t.Fatal(err)
	}
	revoked := 0
	for _, rec := range recs {
		if rec.Kind == "policy" && rec.Op == "revoke" {
			revoked++
			if !strings.HasSuffix(rec.Detail, " <- line 6") {
				t.Fatalf("revoke audited as %q, want the rule's new line 6", rec.Detail)
			}
		}
	}
	if revoked != 1 {
		t.Fatalf("%d revoke records, want 1", revoked)
	}
}
