package compile

import (
	"fmt"
	"strings"
	"testing"
)

// bigDoc is verify's 1000-rule deployment-shaped document (two priority
// tiers, a sprinkle of windowed denies) followed by statements over
// nested groups and a role.
func bigDoc() string {
	var b strings.Builder
	b.WriteString("pdp edge priority 10\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "allow proto tcp from host h%d to host s%d\n", i, i%40)
	}
	b.WriteString("pdp campus priority 50\n")
	for i := 0; i < 500; i++ {
		if i%7 == 0 {
			fmt.Fprintf(&b, "deny from host h%d to host vault between 22:00-06:00\n", i)
			continue
		}
		fmt.Fprintf(&b, "allow from user u%d to host s%d\n", i, i%40)
	}
	b.WriteString(`group g0 { user a0 }
group g1 { group g0; host b1 }
role r0 { host srv0 }
pdp extra priority 70
allow from group g0 to host db
allow from group g1 to role r0
allow from host x to role r0
`)
	return b.String()
}

// TestRecompileLowersOnlyTheEdit: compiled against the program it
// replaces, a one-line removal lowers nothing and a one-line insertion
// lowers exactly the new statement, wherever they sit; a group or role
// redefinition lowers exactly the statements that reference it, through
// nested groups. The engine compiles against its running program.
func TestRecompileLowersOnlyTheEdit(t *testing.T) {
	full := bigDoc()
	base := Compile(mustParse(t, full))
	if base.lowered != len(base.Stmts) {
		t.Fatalf("a compile without a previous program lowered %d of %d statements", base.lowered, len(base.Stmts))
	}
	tests := []struct {
		name        string
		old, new    string
		wantLowered int
	}{
		{"remove line 5", "allow proto tcp from host h3 to host s3\n", "", 0},
		{"remove a late line", "allow from user u498 to host s18\n", "", 0},
		{"insert at the top", "pdp edge priority 10\n", "pdp edge priority 10\nallow from host new to host s1\n", 1},
		{"insert a windowed line", "pdp campus priority 50\n", "pdp campus priority 50\ndeny from host new to host vault between 22:00-06:00\n", 1},
		{"respace a line", "allow from user u1 to host s1\n", "allow  from user u1   to host s1\n", 0},
		{"change a nested group", "group g0 { user a0 }", "group g0 { user a0; user a1 }", 2},
		{"change the outer group", "group g1 { group g0; host b1 }", "group g1 { group g0; host b2 }", 1},
		{"redefine the role", "role r0 { host srv0 }", "role r0 { host srv1 }", 2},
	}
	for _, tt := range tests {
		edited := strings.Replace(full, tt.old, tt.new, 1)
		if edited == full {
			t.Fatalf("%s: edit not found", tt.name)
		}
		p := Recompile(base, mustParse(t, edited))
		if p.lowered != tt.wantLowered {
			t.Errorf("%s: lowered %d statements, want %d", tt.name, p.lowered, tt.wantLowered)
		}
		if got, want := programText(p), programText(Compile(mustParse(t, edited))); got != want {
			t.Errorf("%s: program differs from a fresh compile", tt.name)
		}
	}

	eng, _ := newEngine(t)
	if _, err := eng.SetSource(full); err != nil {
		t.Fatal(err)
	}
	p := eng.Compile(mustParse(t, strings.Replace(full, "allow proto tcp from host h3 to host s3\n", "", 1)))
	if p.lowered != 0 {
		t.Fatalf("engine compile of a one-line removal lowered %d statements, want 0", p.lowered)
	}
}
