package admin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

func newTestServer(t *testing.T) (*dfi.System, *Client) {
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
	srv := httptest.NewServer(Handler(sys))
	t.Cleanup(srv.Close)
	return sys, NewClient(srv.URL)
}

// TestRuleLifecycle: a rule enters through the policy document, shows up
// in the read-only GET /v1/rules view, and leaves with the next document
// that omits it — a PUT is the whole policy. /v1/rules takes no writes.
func TestRuleLifecycle(t *testing.T) {
	_, client := newTestServer(t)

	d, err := client.ApplyPolicy("pdp ops priority 50\nallow from user alice to host mail ip 10.0.0.9\n", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Insert) != 1 || d.Insert[0].ID == 0 {
		t.Fatalf("apply delta = %+v", d)
	}
	id := d.Insert[0].ID

	rules, err := client.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 {
		t.Fatalf("rules = %d", len(rules))
	}
	r := rules[0]
	if r.ID != id || r.Action != "allow" || r.Src.User != "alice" ||
		r.Dst.Host != "mail" || r.Dst.IP != "10.0.0.9" || r.Priority != 50 || r.Origin == "" {
		t.Fatalf("rule = %+v", r)
	}

	d, err = client.ApplyPolicy("pdp ops priority 50\n", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Revoke) != 1 || d.Revoke[0].ID != id {
		t.Fatalf("revoking apply delta = %+v", d)
	}
	rules, err = client.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 0 {
		t.Fatalf("rules after revoke = %d", len(rules))
	}

	// The per-rule write routes are gone: POST on the read-only view is a
	// 405, and there is no per-id resource left to DELETE.
	resp, env := get(t, http.MethodPost, client.base+"/v1/rules", `{"pdp":"ops","action":"allow"}`)
	if resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("POST /v1/rules = %d %+v", resp.StatusCode, env)
	}
	resp, env = get(t, http.MethodDelete, client.base+"/v1/rules/1", "")
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != CodeNotFound {
		t.Fatalf("DELETE /v1/rules/1 = %d %+v", resp.StatusCode, env)
	}
}

// TestInsertValidation: every rule insert goes through the document, so a
// malformed rule — no declaring PDP, an unknown action, a bad IP or MAC —
// is a 422 naming its line, and the manager is untouched.
func TestInsertValidation(t *testing.T) {
	sys, client := newTestServer(t)
	for _, src := range []string{
		"allow from host a\n",
		"pdp ops priority 50\nshrug from host a\n",
		"pdp ops priority 50\nallow from ip not-an-ip\n",
		"pdp ops priority 50\nallow from mac zz:zz\n",
	} {
		body, _ := json.Marshal(PolicyDocJSON{Source: src})
		resp, env := get(t, http.MethodPut, client.base+"/v1/policy", string(body))
		if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != CodeValidation {
			t.Fatalf("%q: %d %+v", src, resp.StatusCode, env)
		}
		if want := strings.Count(src, "\n"); len(env.Error.Lines) != 1 || env.Error.Lines[0] != want {
			t.Fatalf("%q: lines = %v, want [%d]", src, env.Error.Lines, want)
		}
	}
	if sys.Policy().Len() != 0 {
		t.Fatalf("rejected inserts left %d rules", sys.Policy().Len())
	}
}

func TestBindings(t *testing.T) {
	sys, client := newTestServer(t)
	steps := []BindingJSON{
		{Kind: "ip-mac", IP: "10.0.0.1", MAC: "02:00:00:00:00:01"},
		{Kind: "host-ip", Host: "h1", IP: "10.0.0.1"},
		{Kind: "user-host", User: "alice", Host: "h1"},
	}
	for _, b := range steps {
		if err := client.AddBinding(b); err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
	}
	if users := sys.Entity().UsersOn("h1"); len(users) != 1 || users[0] != "alice" {
		t.Fatalf("users = %v", users)
	}
	if err := client.AddBinding(BindingJSON{Kind: "user-host", User: "alice", Host: "h1", Remove: true}); err != nil {
		t.Fatal(err)
	}
	if users := sys.Entity().UsersOn("h1"); len(users) != 0 {
		t.Fatalf("users after unbind = %v", users)
	}
	if err := client.AddBinding(BindingJSON{Kind: "nonsense"}); err == nil {
		t.Fatal("unknown binding kind accepted")
	}
	if err := client.AddBinding(BindingJSON{Kind: "ip-mac", IP: "bad", MAC: "02:00:00:00:00:01"}); err == nil {
		t.Fatal("bad IP accepted")
	}
}

func TestStats(t *testing.T) {
	_, client := newTestServer(t)
	if _, err := client.ApplyPolicy("pdp ops priority 50\ndeny from host kiosk\n", false); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rules != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFlowInspectionThroughProxy(t *testing.T) {
	sys, client := newTestServer(t)

	// Wire a real switch through the proxy so flows can be read back.
	sw := switchsim.NewSwitch(switchsim.Config{DPID: 0x7})
	swEnd, dfiEnd := bufpipe.New()
	go func() { _ = sw.ServeControl(swEnd) }()
	go func() { _ = sys.ServeSwitch(dfiEnd) }()
	t.Cleanup(func() {
		swEnd.Close()
		dfiEnd.Close()
	})
	if !sw.WaitConfigured(5 * time.Second) {
		t.Fatal("switch never configured")
	}

	dpids, err := client.Switches()
	if err != nil {
		t.Fatal(err)
	}
	if len(dpids) != 1 || dpids[0] != 0x7 {
		t.Fatalf("switches = %v", dpids)
	}

	// Drive one denied flow so a DFI rule lands in table 0.
	if err := sw.AttachPort(1, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	frame := netpkt.BuildTCP(
		netpkt.MustParseMAC("02:00:00:00:00:01"), netpkt.MustParseMAC("02:00:00:00:00:02"),
		netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseIPv4("10.0.0.2"),
		&netpkt.TCPSegment{SrcPort: 1000, DstPort: 80, Flags: netpkt.TCPSyn})
	sw.Inject(1, frame)
	deadline := time.Now().Add(5 * time.Second)
	for sw.FlowCount(0) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	flows, err := client.Flows(0x7)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	f := flows[0]
	if f.TableID != 0 || f.Action != "deny" || f.Cookie != 0 {
		t.Fatalf("flow = %+v", f)
	}
	if f.Match == "" {
		t.Fatal("empty match rendering")
	}

	// Unknown switch errors cleanly.
	if _, err := client.Flows(0x99); err == nil {
		t.Fatal("unknown dpid accepted")
	}
}
