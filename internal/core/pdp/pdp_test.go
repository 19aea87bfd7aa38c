package pdp

import (
	"slices"
	"testing"
	"time"

	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/sensors"
)

func testRoster() Roster {
	return Roster{
		EnclaveOf: map[string]string{
			"a1": "alpha", "a2": "alpha", "a3": "alpha",
			"b1": "beta", "b2": "beta",
			"srv-ad": "servers", "srv-file": "servers",
		},
		Servers: []string{"srv-ad", "srv-file"},
		CoreServices: []ServiceEndpoint{
			{Host: "srv-ad", Proto: netpkt.ProtoUDP, Port: 53},
		},
	}
}

func hostFlow(src, dst string) *policy.FlowView {
	return &policy.FlowView{
		EtherType:  netpkt.EtherTypeIPv4,
		HasIPProto: true,
		IPProto:    netpkt.ProtoTCP,
		Src:        policy.EndpointAttrs{Host: src},
		Dst:        policy.EndpointAttrs{Host: dst},
	}
}

func TestRosterPeers(t *testing.T) {
	r := testRoster()
	peers := r.Peers("a1")
	if len(peers) != 2 || peers[0] != "a2" || peers[1] != "a3" {
		t.Fatalf("Peers(a1) = %v", peers)
	}
	if got := r.Peers("unknown"); got != nil {
		t.Fatalf("Peers(unknown) = %v", got)
	}
	if !r.IsServer("srv-ad") || r.IsServer("a1") {
		t.Fatal("IsServer wrong")
	}
	if got := len(r.Hosts()); got != 7 {
		t.Fatalf("Hosts = %d", got)
	}
}

func TestAllowAllEnableDisable(t *testing.T) {
	pm := policy.NewManager()
	a, err := NewAllowAll(pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Enable(); err != nil {
		t.Fatal(err)
	}
	if err := a.Enable(); err != nil { // idempotent
		t.Fatal(err)
	}
	if d := pm.Query(hostFlow("x", "y")); !d.Matched || d.Action != policy.ActionAllow {
		t.Fatalf("decision = %+v", d)
	}
	if err := a.Disable(); err != nil {
		t.Fatal(err)
	}
	if d := pm.Query(hostFlow("x", "y")); d.Matched {
		t.Fatalf("still matched after disable: %+v", d)
	}
}

func TestSRBACReachability(t *testing.T) {
	pm := policy.NewManager()
	s, err := NewSRBAC(pm, testRoster())
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Install()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rules installed")
	}
	tests := []struct {
		src, dst string
		allow    bool
	}{
		{src: "a1", dst: "a2", allow: true},  // same enclave
		{src: "a1", dst: "b1", allow: false}, // cross enclave
		{src: "a1", dst: "srv-ad", allow: true},
		{src: "srv-ad", dst: "b2", allow: true},
		{src: "srv-ad", dst: "srv-file", allow: true},
		{src: "b1", dst: "b2", allow: true},
	}
	for _, tt := range tests {
		d := pm.Query(hostFlow(tt.src, tt.dst))
		if got := d.Matched && d.Action == policy.ActionAllow; got != tt.allow {
			t.Errorf("%s->%s allowed=%v, want %v", tt.src, tt.dst, got, tt.allow)
		}
	}
	// Rules never change once installed: that is the point of S-RBAC.
	before := pm.Len()
	s.Uninstall()
	if pm.Len() != 0 {
		t.Fatalf("uninstall left %d rules of %d", pm.Len(), before)
	}
}

func TestSRBACNoDuplicateRules(t *testing.T) {
	pm := policy.NewManager()
	s, err := NewSRBAC(pm, testRoster())
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Install()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range pm.Rules() {
		key := r.Src.Host + "->" + r.Dst.Host
		if seen[key] {
			t.Fatalf("duplicate rule for %s", key)
		}
		seen[key] = true
	}
	if len(seen) != n {
		t.Fatalf("rule count mismatch: %d vs %d", len(seen), n)
	}
}

func atRBACEnv(t *testing.T) (*policy.Manager, *ATRBAC) {
	t.Helper()
	pm := policy.NewManager()
	a, err := NewATRBAC(pm, testRoster())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(nil); err != nil {
		t.Fatal(err)
	}
	return pm, a
}

func TestATRBACPairwiseGating(t *testing.T) {
	pm, a := atRBACEnv(t)

	// No users: department flows denied; servers unreachable over SMB.
	if d := pm.Query(hostFlow("a1", "a2")); d.Matched && d.Action == policy.ActionAllow {
		t.Fatal("peer flow allowed with no users")
	}
	if d := pm.Query(hostFlow("a1", "srv-file")); d.Matched && d.Action == policy.ActionAllow {
		t.Fatal("server flow allowed with no users")
	}

	// a1's user logs on: servers open for a1, but a2 still needs its own.
	a.HandleAuth(sensors.AuthEvent{User: "u1", Host: "a1", LoggedOn: true})
	if d := pm.Query(hostFlow("a1", "srv-file")); !d.Matched || d.Action != policy.ActionAllow {
		t.Fatal("logged-on host cannot reach server")
	}
	if d := pm.Query(hostFlow("a1", "a2")); d.Matched && d.Action == policy.ActionAllow {
		t.Fatal("peer flow allowed while peer has no user")
	}

	// a2 logs on: both directions open.
	a.HandleAuth(sensors.AuthEvent{User: "u2", Host: "a2", LoggedOn: true})
	for _, pair := range [][2]string{{"a1", "a2"}, {"a2", "a1"}} {
		if d := pm.Query(hostFlow(pair[0], pair[1])); !d.Matched || d.Action != policy.ActionAllow {
			t.Fatalf("%s->%s denied with both logged on", pair[0], pair[1])
		}
	}

	// a2 logs off: both directions close again.
	a.HandleAuth(sensors.AuthEvent{User: "u2", Host: "a2", LoggedOn: false})
	if d := pm.Query(hostFlow("a1", "a2")); d.Matched && d.Action == policy.ActionAllow {
		t.Fatal("flow still allowed after peer logoff")
	}
	if d := pm.Query(hostFlow("a1", "srv-file")); !d.Matched || d.Action != policy.ActionAllow {
		t.Fatal("a1's own grants lost on a2's logoff")
	}
}

func TestATRBACMultipleUsersPerHost(t *testing.T) {
	pm, a := atRBACEnv(t)
	a.HandleAuth(sensors.AuthEvent{User: "u1", Host: "a1", LoggedOn: true})
	a.HandleAuth(sensors.AuthEvent{User: "u9", Host: "a1", LoggedOn: true})
	a.HandleAuth(sensors.AuthEvent{User: "u1", Host: "a1", LoggedOn: false})
	// u9 is still on: grants must survive.
	if d := pm.Query(hostFlow("a1", "srv-file")); !d.Matched || d.Action != policy.ActionAllow {
		t.Fatal("grants revoked while another user is still logged on")
	}
	a.HandleAuth(sensors.AuthEvent{User: "u9", Host: "a1", LoggedOn: false})
	if d := pm.Query(hostFlow("a1", "srv-file")); d.Matched && d.Action == policy.ActionAllow {
		t.Fatal("grants survive after last logoff")
	}
	if a.LoggedOnHosts() != 0 || a.ActiveRules() != 0 {
		t.Fatalf("state leak: hosts=%d rules=%d", a.LoggedOnHosts(), a.ActiveRules())
	}
}

func TestATRBACCoreServicesPortScoped(t *testing.T) {
	pm, _ := atRBACEnv(t)
	// DNS (UDP 53) to srv-ad allowed with nobody logged on.
	port := uint16(53)
	dns := &policy.FlowView{
		EtherType:  netpkt.EtherTypeIPv4,
		HasIPProto: true,
		IPProto:    netpkt.ProtoUDP,
		Src:        policy.EndpointAttrs{Host: "a1"},
		Dst:        policy.EndpointAttrs{Host: "srv-ad", HasPort: true, Port: port},
	}
	if d := pm.Query(dns); !d.Matched || d.Action != policy.ActionAllow {
		t.Fatal("DNS to core service denied")
	}
	// SMB (TCP 445) to the same host is not covered.
	smb := hostFlow("a1", "srv-ad")
	smb.Dst.HasPort = true
	smb.Dst.Port = 445
	if d := pm.Query(smb); d.Matched && d.Action == policy.ActionAllow {
		t.Fatal("SMB to core-service host allowed with no user")
	}
}

func TestATRBACServersStaticallyConnected(t *testing.T) {
	pm, _ := atRBACEnv(t)
	if d := pm.Query(hostFlow("srv-ad", "srv-file")); !d.Matched || d.Action != policy.ActionAllow {
		t.Fatal("server↔server flow denied")
	}
}

func TestATRBACUnknownHostIgnored(t *testing.T) {
	_, a := atRBACEnv(t)
	a.HandleAuth(sensors.AuthEvent{User: "ghost", Host: "not-in-roster", LoggedOn: true})
	if a.LoggedOnHosts() != 0 {
		t.Fatal("unknown host tracked")
	}
}

// appliesOf returns a channel that receives once per policy apply on pm.
// Each PDP change is exactly one apply, and a PDP holds its own lock across
// the apply, so once a receive returns, the PDP's state reflects the
// change. The buffer covers every apply one test makes, so the deferred
// Stop never blocks on a receiver that has returned.
func appliesOf(pm *policy.Manager) <-chan struct{} {
	applied := make(chan struct{}, 4)
	pm.SetFlushFunc(func(obs.SpanContext, []policy.RuleID) { applied <- struct{}{} })
	return applied
}

func waitApply(t *testing.T, applied <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-applied:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no policy apply", what)
	}
}

func TestATRBACViaBus(t *testing.T) {
	pm := policy.NewManager()
	applied := appliesOf(pm)
	a, err := NewATRBAC(pm, testRoster())
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	defer b.Close()
	if err := a.Start(b); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	waitApply(t, applied, "baseline")
	if err := b.Publish(bus.Event{Topic: sensors.TopicAuth,
		Payload: sensors.AuthEvent{User: "u1", Host: "a1", LoggedOn: true}}); err != nil {
		t.Fatal(err)
	}
	waitApply(t, applied, "log-on")
	if a.LoggedOnHosts() != 1 {
		t.Fatal("bus-delivered auth event not applied")
	}
}

func TestATRBACStopRevokesEverything(t *testing.T) {
	pm := policy.NewManager()
	a, err := NewATRBAC(pm, testRoster())
	if err != nil {
		t.Fatal(err)
	}
	b := bus.New()
	defer b.Close()
	if err := a.Start(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(b); err != nil { // idempotent
		t.Fatal(err)
	}
	a.HandleAuth(sensors.AuthEvent{User: "u1", Host: "a1", LoggedOn: true})
	if pm.Len() == 0 {
		t.Fatal("no rules before stop")
	}
	a.Stop()
	if pm.Len() != 0 {
		t.Fatalf("%d rules survived Stop", pm.Len())
	}
	// Events after Stop are ignored (no subscription, no panic).
	a.HandleAuth(sensors.AuthEvent{User: "u1", Host: "a1", LoggedOn: false})
}

func TestDuplicatePDPRegistrationFails(t *testing.T) {
	pm := policy.NewManager()
	if _, err := NewAllowAll(pm); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAllowAll(pm); err == nil {
		t.Fatal("second allow-all registration accepted")
	}
	if a, err := NewATRBAC(pm, testRoster()); err != nil || a.Name() != "at-rbac" {
		t.Fatalf("atrbac: %v", err)
	}
	if s, err := NewSRBAC(pm, testRoster()); err != nil || s.Name() != "s-rbac" {
		t.Fatalf("srbac: %v", err)
	}
}

// quarantineEngine loads the quarantine template — the only quarantine
// PDP — into a policy engine over pm, at a priority above every Go PDP.
func quarantineEngine(t *testing.T, pm *policy.Manager) *compile.Engine {
	t.Helper()
	eng := compile.NewEngine(pm, nil)
	if _, err := eng.SetSource("pdp quarantine priority 1000\n" +
		"template quarantine(h) { deny from host $h; deny to host $h }\n"); err != nil {
		t.Fatal(err)
	}
	return eng
}

func quarantined(eng *compile.Engine, host string) bool {
	return slices.Contains(eng.Instances(), compile.InstanceKey("quarantine", []string{host}))
}

func TestQuarantineOverridesEverything(t *testing.T) {
	pm := policy.NewManager()
	allowAll, err := NewAllowAll(pm)
	if err != nil {
		t.Fatal(err)
	}
	if err := allowAll.Enable(); err != nil {
		t.Fatal(err)
	}
	eng := quarantineEngine(t, pm)
	if _, err := eng.Instantiate(obs.SpanContext{}, "quarantine", "a1"); err != nil {
		t.Fatal(err)
	}
	if !quarantined(eng, "a1") {
		t.Fatal("not quarantined")
	}
	// Both directions denied despite allow-all.
	for _, f := range []*policy.FlowView{hostFlow("a1", "b1"), hostFlow("b1", "a1")} {
		if d := pm.Query(f); d.Action != policy.ActionDeny {
			t.Fatalf("quarantined flow decision = %+v", d)
		}
	}
	// Unrelated hosts are untouched.
	if d := pm.Query(hostFlow("b1", "b2")); d.Action != policy.ActionAllow {
		t.Fatalf("unrelated flow = %+v", d)
	}
	if _, err := eng.Retract(obs.SpanContext{}, "quarantine", "a1"); err != nil {
		t.Fatal(err)
	}
	if d := pm.Query(hostFlow("a1", "b1")); d.Action != policy.ActionAllow {
		t.Fatalf("post-retract flow = %+v", d)
	}
	// Idempotency.
	if _, err := eng.Retract(obs.SpanContext{}, "quarantine", "a1"); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := eng.Instantiate(obs.SpanContext{}, "quarantine", "a1"); err != nil {
			t.Fatal(err)
		}
	}
	if n := pm.Len(); n != 3 {
		t.Fatalf("rules after double instantiate = %d, want allow-all + 2 denies", n)
	}
}

func TestQuarantineStopLeavesIsolationsInForce(t *testing.T) {
	pm := policy.NewManager()
	eng := quarantineEngine(t, pm)
	b := bus.New()
	defer b.Close()
	cancel, errCount, err := sensors.AttachQuarantineTemplate(b, eng, "quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Instantiate(obs.SpanContext{}, "quarantine", "h1"); err != nil {
		t.Fatal(err)
	}
	cancel()
	if !quarantined(eng, "h1") {
		t.Fatal("cancelling the bridge lifted the quarantine")
	}
	if d := pm.Query(hostFlow("h1", "x")); d.Action != policy.ActionDeny {
		t.Fatal("deny rules lost on cancel")
	}
	if errCount() != 0 {
		t.Fatalf("errors = %d", errCount())
	}
}

func TestQuarantineViaBusEvents(t *testing.T) {
	pm := policy.NewManager()
	applied := appliesOf(pm)
	eng := quarantineEngine(t, pm)
	b := bus.New()
	defer b.Close()
	cancel, errCount, err := sensors.AttachQuarantineTemplate(b, eng, "quarantine")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := b.Publish(bus.Event{Topic: sensors.TopicCompromise,
		Payload: sensors.CompromiseEvent{Host: "h9"}}); err != nil {
		t.Fatal(err)
	}
	waitApply(t, applied, "isolate")
	if !quarantined(eng, "h9") {
		t.Fatal("compromise event not applied")
	}
	if err := b.Publish(bus.Event{Topic: sensors.TopicCompromise,
		Payload: sensors.CompromiseEvent{Host: "h9", Cleared: true}}); err != nil {
		t.Fatal(err)
	}
	waitApply(t, applied, "release")
	if quarantined(eng, "h9") {
		t.Fatal("clear event not applied")
	}
	if errCount() != 0 {
		t.Fatalf("errors = %d", errCount())
	}
}
