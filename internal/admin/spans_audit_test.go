package admin

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
)

// newTestServerOpts is newTestServer with extra system and handler options.
func newTestServerOpts(t *testing.T, sysOpts []dfi.Option, hOpts []HandlerOption) (*dfi.System, *Client) {
	t.Helper()
	opts := append([]dfi.Option{dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		a, b := bufpipe.New()
		ctl := controller.New(controller.Config{})
		go func() { _ = ctl.Serve(b) }()
		return a, nil
	})}, sysOpts...)
	sys, err := dfi.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	srv := httptest.NewServer(Handler(sys, hOpts...))
	t.Cleanup(srv.Close)
	return sys, NewClient(srv.URL)
}

func TestSpansEndpoint(t *testing.T) {
	sys, client := newTestServer(t)
	sys.PCP().AttachSwitch(7, nopSwitch{})
	d, err := client.ApplyPolicy("pdp ops priority 50\nallow from host a\n", false)
	if err != nil {
		t.Fatal(err)
	}
	id := d.Insert[0].ID
	admitFlow(sys.PCP(), 41000)

	recent, err := client.RecentSpans(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(recent) == 0 {
		t.Fatal("no spans after a mutation and an admission")
	}
	// Find the policy apply span and pull its whole trace.
	var insertTrace uint64
	for _, sp := range recent {
		if sp.Component == "policy" && sp.Stage == "apply" && sp.RuleID == id {
			insertTrace = sp.Trace
		}
	}
	if insertTrace == 0 {
		t.Fatalf("no policy/apply span among %d recent spans", len(recent))
	}
	trace, err := client.Spans(insertTrace)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatalf("trace %d retrieved no spans", insertTrace)
	}
	for _, sp := range trace {
		if sp.Trace != insertTrace {
			t.Fatalf("span %d belongs to trace %d, queried %d", sp.ID, sp.Trace, insertTrace)
		}
	}
	// The admission emitted its span tree too.
	var admission bool
	for _, sp := range recent {
		if sp.Component == "pcp" && sp.Stage == "admission" && sp.DPID == 7 {
			admission = true
		}
	}
	if !admission {
		t.Fatal("no pcp/admission span for the admitted flow")
	}

	// Validation: bad trace id and bad count are 422 envelopes.
	for _, q := range []string{"?trace=banana", "?trace=0", "?n=0", "?n=x"} {
		resp, env := get(t, http.MethodGet, client.base+"/v1/spans"+q, "")
		if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != CodeValidation {
			t.Fatalf("GET /v1/spans%s = %d %+v", q, resp.StatusCode, env)
		}
	}
}

func TestAuditEndpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	sys, client := newTestServerOpts(t, []dfi.Option{dfi.WithAuditLog(path, 0)}, nil)
	sys.PCP().AttachSwitch(7, nopSwitch{})
	if _, err := client.ApplyPolicy("pdp ops priority 50\nallow from host a\n", false); err != nil {
		t.Fatal(err)
	}
	admitFlow(sys.PCP(), 42000)

	recs, err := client.Audit(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("audit records = %d, want at least a mutation and a decision", len(recs))
	}
	kinds := map[string]bool{}
	for _, r := range recs {
		kinds[r.Kind] = true
	}
	if !kinds["policy"] || !kinds["decision"] {
		t.Fatalf("audit kinds = %v, want policy and decision", kinds)
	}

	v, err := client.AuditVerify()
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.Records == 0 || v.Error != "" {
		t.Fatalf("verify = %+v", v)
	}

	// Flip one byte on disk: the endpoint must report the tampering.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err = client.AuditVerify()
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Error == "" {
		t.Fatalf("verify after tamper = %+v, want failure", v)
	}
}

func TestAuditDisabled(t *testing.T) {
	_, client := newTestServer(t)
	for _, p := range []string{"/v1/audit", "/v1/audit/verify"} {
		resp, env := get(t, http.MethodGet, client.base+p, "")
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
			t.Fatalf("GET %s = %d %+v", p, resp.StatusCode, env)
		}
	}
}

func TestPprofOptIn(t *testing.T) {
	// Default handler: pprof absent, enveloped 404.
	_, client := newTestServer(t)
	resp, env := get(t, http.MethodGet, client.base+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
		t.Fatalf("pprof without opt-in = %d %+v", resp.StatusCode, env)
	}

	_, client = newTestServerOpts(t, nil, []HandlerOption{WithPprof()})
	resp, _ = get(t, http.MethodGet, client.base+"/debug/pprof/", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with opt-in = %d", resp.StatusCode)
	}
}
