package pcp

import (
	"fmt"
	"strings"
	"testing"

	"github.com/dfi-sdn/dfi/internal/policytext/compile"
)

// langGroupDoc renders a policy document with one n-member group and a
// deny statement over it — the language-level analogue of seedDenyRules.
func langGroupDoc(n int) string {
	var b strings.Builder
	b.WriteString("group quarantined {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  host q%d\n", i)
	}
	b.WriteString("}\n\npdp lang priority 30\ndeny from group quarantined\n")
	return b.String()
}

// TestLanguageMembershipDeltaBounded is the end-to-end O(affected) gate
// for the policy language: one membership change of a 1000-member group
// must flow through Engine → Manager → cookie flush as a single-rule
// delta, bounded flow-mod writes per switch — not a delete-and-repopulate
// of the whole compiled rule set.
func TestLanguageMembershipDeltaBounded(t *testing.T) {
	const members = 1000
	p, pm, sws := newPolicyEnv(t, 2)
	defer p.Stop()
	eng := compile.NewEngine(pm, nil)
	if _, err := eng.SetSource(langGroupDoc(members)); err != nil {
		t.Fatal(err)
	}
	if pm.Len() != members {
		t.Fatalf("compiled policy has %d rules, want %d", pm.Len(), members)
	}

	// Adding one member must lower exactly one new rule and write a small
	// constant number of flow mods per switch.
	before := modsWritten(sws[0])
	d, err := eng.AddMember("quarantined", "host fresh")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 1 || len(d.Revoke) != 0 {
		t.Fatalf("add delta = +%d/-%d, want +1/-0 (O(affected) recompile)", len(d.Insert), len(d.Revoke))
	}
	if pm.Len() != members+1 {
		t.Fatalf("manager has %d rules after add", pm.Len())
	}
	addMods := modsWritten(sws[0]) - before
	if addMods > 4 {
		t.Fatalf("membership add wrote %d flow mods per switch, want ≤ 4 (O(affected), not O(rules))", addMods)
	}

	// Removing one member revokes exactly its rule; the revocation is
	// visible on the wire as a single cookie-scoped delete per switch.
	before = modsWritten(sws[0])
	d, err = eng.RemoveMember("quarantined", "host q17")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 0 || len(d.Revoke) != 1 {
		t.Fatalf("remove delta = +%d/-%d, want +0/-1", len(d.Insert), len(d.Revoke))
	}
	for i, sw := range sws {
		if n := modsWritten(sw) - before; n != 1 {
			t.Fatalf("switch %d: membership remove wrote %d flow mods, want exactly 1 cookie delete", i, n)
		}
	}
	if pm.Len() != members {
		t.Fatalf("manager has %d rules after remove", pm.Len())
	}
}
