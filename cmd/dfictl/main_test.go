package main

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/admin"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
)

// newTestClient stands up a full System behind an admin server and returns
// a client pointed at it, exactly as dfictl -admin would build one.
func newTestClient(t *testing.T) (*dfi.System, *admin.Client) {
	t.Helper()
	sys, err := dfi.New(dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		a, b := bufpipe.New()
		ctl := controller.New(controller.Config{})
		go func() { _ = ctl.Serve(b) }()
		return a, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	srv := httptest.NewServer(admin.Handler(sys))
	t.Cleanup(srv.Close)
	return sys, admin.NewClient(srv.URL)
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := fn()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if errRun != nil {
		t.Fatalf("command failed: %v\noutput: %s", errRun, out)
	}
	return string(out)
}

func TestRoundTripOverV1(t *testing.T) {
	sys, client := newTestClient(t)

	path := writePolicyFile(t, "pdp ops priority 50\nallow from user alice to host mail\n")
	out := capture(t, func() error { return run(client, []string{"policy", "apply", path}) })
	if !strings.Contains(out, "1 rule(s) inserted") {
		t.Fatalf("apply output = %q", out)
	}
	out = capture(t, func() error { return run(client, []string{"rules"}) })
	if !strings.Contains(out, "alice") || !strings.Contains(out, "ops") {
		t.Fatalf("rules output = %q", out)
	}

	if err := run(client, []string{"bind", "user-host", "alice", "h1"}); err != nil {
		t.Fatal(err)
	}
	if users := sys.Entity().UsersOn("h1"); len(users) != 1 || users[0] != "alice" {
		t.Fatalf("binding did not land: %v", users)
	}
	if err := run(client, []string{"unbind", "user-host", "alice", "h1"}); err != nil {
		t.Fatal(err)
	}

	out = capture(t, func() error { return run(client, []string{"metrics"}) })
	if !strings.Contains(out, "dfi_policy_rules 1\n") {
		t.Fatalf("metrics output = %q", out)
	}

	// The per-rule write commands are gone; policy changes only through
	// the document.
	for _, cmd := range []string{"allow", "deny", "revoke", "pdp", "trace"} {
		if err := run(client, []string{cmd}); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Fatalf("dfictl %s error = %v", cmd, err)
		}
	}
}

// TestMetricsAndTraceSubcommands: metrics prints the exposition, spans
// prints recent spans and one trace's spans by id.
func TestMetricsAndTraceSubcommands(t *testing.T) {
	sys, client := newTestClient(t)

	out := capture(t, func() error { return run(client, []string{"metrics"}) })
	if !strings.Contains(out, "# TYPE dfi_pcp_processed_total counter") {
		t.Fatalf("metrics output missing exposition:\n%s", out)
	}

	out = capture(t, func() error { return run(client, []string{"spans"}) })
	if !strings.Contains(out, "no spans recorded") {
		t.Fatalf("spans output = %q", out)
	}
	if _, err := sys.PolicyEngine().SetSource("pdp ops priority 50\nallow from host a\n"); err != nil {
		t.Fatal(err)
	}
	recent := sys.Spans().Last(1)
	if len(recent) != 1 {
		t.Fatal("a policy apply committed no span")
	}
	trace := strconv.FormatUint(uint64(recent[0].Trace), 10)
	out = capture(t, func() error { return run(client, []string{"spans", trace}) })
	if !strings.Contains(out, "trace="+trace) || !strings.Contains(out, "policy") {
		t.Fatalf("spans %s output = %q", trace, out)
	}
	if err := run(client, []string{"spans", "banana"}); err == nil {
		t.Fatal("bad trace id accepted")
	}
}

// TestSLOSubcommand round-trips dfictl slo against live admin servers:
// one without the engine (enveloped 404) and one with the default
// objectives under real mutation traffic.
func TestSLOSubcommand(t *testing.T) {
	// A server assembled without WithSLO answers the enveloped not_found.
	_, bare := newTestClient(t)
	if err := run(bare, []string{"slo"}); err == nil || !strings.Contains(err.Error(), "not_found") {
		t.Fatalf("slo against bare server = %v, want not_found envelope", err)
	}

	sys, err := dfi.New(
		dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
			a, b := bufpipe.New()
			ctl := controller.New(controller.Config{})
			go func() { _ = ctl.Serve(b) }()
			return a, nil
		}),
		dfi.WithSLO(),
		dfi.WithSLOInterval(-1), // evaluate at read time only
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	srv := httptest.NewServer(admin.Handler(sys))
	t.Cleanup(srv.Close)
	client := admin.NewClient(srv.URL)

	// Drive a few mutations so the TTE histogram has observations.
	if err := sys.Policy().RegisterPDP("ops", 50); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sys.Policy().Insert(dfi.Rule{PDP: "ops", Action: dfi.ActionAllow,
			Src: dfi.EndpointSpec{User: "alice"}, Dst: dfi.EndpointSpec{Host: "mail"}}); err != nil {
			t.Fatal(err)
		}
	}

	out := capture(t, func() error { return run(client, []string{"slo"}) })
	for _, want := range []string{"slo HEALTHY", "tte-p99", "admission-p99", "packetin-rate", "audit-failures"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slo output missing %q:\n%s", want, out)
		}
	}

	// The typed client decodes the same report.
	rep, err := client.SLO()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy || len(rep.Statuses) != 4 {
		t.Fatalf("client.SLO() = %+v", rep)
	}
}

const testPolicy = `group eng { user alice; user bob }

pdp corp priority 50
allow proto tcp from group eng to host mail port 143
deny from host lobby-kiosk
`

func writePolicyFile(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corp.pol")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPolicyWorkflow(t *testing.T) {
	sys, client := newTestClient(t)
	path := writePolicyFile(t, testPolicy)

	// validate is fully offline.
	out := capture(t, func() error { return run(client, []string{"policy", "validate", path}) })
	if !strings.Contains(out, "ok (1 pdp(s), 1 group(s)") {
		t.Fatalf("validate output = %q", out)
	}

	// apply -dry-run prints the delta but changes nothing.
	out = capture(t, func() error { return run(client, []string{"policy", "apply", "-dry-run", path}) })
	if !strings.Contains(out, "dry run: nothing applied") || strings.Count(out, "+ ") != 3 {
		t.Fatalf("dry-run output = %q", out)
	}
	if sys.Policy().Len() != 0 {
		t.Fatal("dry run installed rules")
	}

	// Real apply.
	out = capture(t, func() error { return run(client, []string{"policy", "apply", path}) })
	if !strings.Contains(out, "3 rule(s) inserted, 0 revoked") {
		t.Fatalf("apply output = %q", out)
	}
	if sys.Policy().Len() != 3 {
		t.Fatalf("manager has %d rules", sys.Policy().Len())
	}

	// show prints the canonical document.
	out = capture(t, func() error { return run(client, []string{"policy", "show"}) })
	if !strings.Contains(out, "group eng") || !strings.Contains(out, "pdp corp priority 50") {
		t.Fatalf("show output = %q", out)
	}

	// show -compiled carries provenance.
	out = capture(t, func() error { return run(client, []string{"policy", "show", "-compiled"}) })
	if strings.Count(out, "<- line") != 3 || !strings.Contains(out, "group eng") {
		t.Fatalf("show -compiled output = %q", out)
	}

	// diff against a grown document previews one insert.
	grown := writePolicyFile(t, testPolicy+"deny to ip 10.0.0.66\n")
	out = capture(t, func() error { return run(client, []string{"policy", "diff", grown}) })
	if strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "+ ") ||
		!strings.Contains(out, "10.0.0.66") {
		t.Fatalf("diff output = %q", out)
	}
	// Re-diff of the unchanged document is a no-op.
	out = capture(t, func() error { return run(client, []string{"policy", "diff", path}) })
	if !strings.Contains(out, "no rule changes") {
		t.Fatalf("no-op diff output = %q", out)
	}
}

func TestPolicyValidateReportsEveryError(t *testing.T) {
	_, client := newTestClient(t)
	path := writePolicyFile(t, "pdp p priority banana\nallow from group ghosts\n")
	err := run(client, []string{"policy", "validate", path})
	if err == nil || !strings.Contains(err.Error(), "2 error(s)") {
		t.Fatalf("validate error = %v", err)
	}
}

func TestLegacyApplyPointsAtPolicyWorkflow(t *testing.T) {
	_, client := newTestClient(t)
	err := run(client, []string{"apply", "whatever.pol"})
	if err == nil || !strings.Contains(err.Error(), "dfictl policy apply") {
		t.Fatalf("legacy apply error = %v", err)
	}
}

const shadowedPolicy = "pdp admin priority 100\nallow from host web\npdp corp priority 10\ndeny from host web to host db\n"

// TestPolicyLint: lint is fully offline; error-severity findings exit
// non-zero, clean and warning-only documents pass.
func TestPolicyLint(t *testing.T) {
	_, client := newTestClient(t)

	clean := writePolicyFile(t, "pdp corp priority 50\nallow from host web to host db\n")
	if err := run(client, []string{"policy", "lint", clean}); err != nil {
		t.Fatalf("clean lint failed: %v", err)
	}

	warn := writePolicyFile(t, "pdp corp priority 10\ndeny to host db\nallow from host web to host db\n")
	if err := run(client, []string{"policy", "lint", warn}); err != nil {
		t.Fatalf("warning-only lint failed: %v", err)
	}

	bad := writePolicyFile(t, shadowedPolicy)
	err := run(client, []string{"policy", "lint", bad})
	if err == nil || !strings.Contains(err.Error(), "lint failed") {
		t.Fatalf("lint error = %v", err)
	}

	// Several files: one bad file fails the whole run, naming it.
	err = run(client, []string{"policy", "lint", clean, bad})
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("multi-file lint error = %v", err)
	}
}

// TestPolicyValidateLintFlag: -lint layers verifier findings onto
// validation; without it the shadowed document still validates.
func TestPolicyValidateLintFlag(t *testing.T) {
	_, client := newTestClient(t)
	bad := writePolicyFile(t, shadowedPolicy)
	if err := run(client, []string{"policy", "validate", bad}); err != nil {
		t.Fatalf("plain validate rejected compilable document: %v", err)
	}
	err := run(client, []string{"policy", "validate", "-lint", bad})
	if err == nil || !strings.Contains(err.Error(), "error-severity") {
		t.Fatalf("validate -lint error = %v", err)
	}
}
