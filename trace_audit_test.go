package dfi_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/sensors"
)

func newTracedSystem(t *testing.T, extra ...dfi.Option) *dfi.System {
	t.Helper()
	opts := append([]dfi.Option{dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		a, b := bufpipe.New()
		ctl := controller.New(controller.Config{})
		go func() { _ = ctl.Serve(b) }()
		return a, nil
	})}, extra...)
	sys, err := dfi.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// TestRevocationTraceIsConnected drives the paper's dynamic-revocation
// chain — sensor event → entity-binding update → policy revocation →
// cookie-scoped flush → proxy flow-mod write — and asserts every hop lands
// in ONE trace with correct parent edges. The template case is the
// quarantine path dfid ships: a compromise event instantiates a 2-rule
// deny template as one apply in the event's trace. Run under -race this
// also exercises the span store against concurrent bus delivery.
func TestRevocationTraceIsConnected(t *testing.T) {
	t.Run("revoke", func(t *testing.T) {
		sys := newTracedSystem(t)
		sys.PCP().AttachSwitch(1, nopSwitch{})

		pm := sys.Policy()
		if err := pm.RegisterPDP("ops", 50); err != nil {
			t.Fatal(err)
		}
		id, err := pm.Insert(policy.Rule{PDP: "ops", Action: policy.ActionAllow,
			Src: policy.EndpointSpec{Host: "h1"}})
		if err != nil {
			t.Fatal(err)
		}

		// A security component reacting to the same sensor event the entity
		// manager consumes: revoke the rule, propagating the event's trace.
		sub, err := sys.EventBus().Subscribe(sensors.TopicDHCP, func(ev bus.Event) {
			if _, _, err := pm.ApplyCtx(ev.Trace, nil, []policy.RuleID{id}); err != nil {
				t.Errorf("revoke: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Cancel()

		sensors.NewDHCPSensor(sys.EventBus()).Record(
			netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseMAC("02:00:00:00:00:01"), true)

		byComp := connectedTrace(t, sys, obs.CompBus, obs.CompEntity, obs.CompPolicy, obs.CompPCP, obs.CompProxy)
		pub, ent, pol := byComp[obs.CompBus], byComp[obs.CompEntity], byComp[obs.CompPolicy]
		if ent.Parent != pub.ID {
			t.Errorf("entity span parent = %d, want bus publish %d", ent.Parent, pub.ID)
		}
		checkApplyChain(t, byComp)
		if pol.RuleID != uint64(id) {
			t.Errorf("policy span = %+v, want the apply revoking rule %d", pol, id)
		}
	})

	t.Run("template quarantine", func(t *testing.T) {
		sys := newTracedSystem(t)
		sys.PCP().AttachSwitch(1, nopSwitch{})
		eng := sys.PolicyEngine()
		// The quarantine denies outrank h1's allow, so instantiating the
		// template flushes it.
		if _, err := eng.SetSource(`
pdp ops priority 10
allow from host h1
pdp quarantine priority 900
template quarantine(h) { deny from host $h; deny to host $h }
`); err != nil {
			t.Fatal(err)
		}
		cancel, _, err := sensors.AttachQuarantineTemplate(sys.EventBus(), eng, "quarantine")
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		if err := sys.EventBus().Publish(bus.Event{Topic: sensors.TopicCompromise,
			Payload: sensors.CompromiseEvent{Host: "h1"}}); err != nil {
			t.Fatal(err)
		}

		byComp := connectedTrace(t, sys, obs.CompBus, obs.CompPolicy, obs.CompPCP, obs.CompProxy)
		checkApplyChain(t, byComp)
		if pol := byComp[obs.CompPolicy]; pol.RuleID != 0 || pol.Detail != "inserted 2, revoked 0" {
			t.Errorf("policy span = %+v, want one apply inserting both template rules", pol)
		}
	})
}

// connectedTrace waits for one trace holding a span of every listed
// component and returns that trace's spans by component.
func connectedTrace(t *testing.T, sys *dfi.System, want ...string) map[string]obs.Span {
	t.Helper()
	// Bus delivery and the flush are asynchronous, and the policy span is
	// committed only after its flush returns; poll for the whole trace.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		byTrace := map[obs.TraceID]map[string]bool{}
		for _, sp := range sys.Spans().Last(128) {
			m := byTrace[sp.Trace]
			if m == nil {
				m = map[string]bool{}
				byTrace[sp.Trace] = m
			}
			m[sp.Component] = true
		}
		for id, comps := range byTrace {
			ok := true
			for _, w := range want {
				ok = ok && comps[w]
			}
			if ok {
				byComp := map[string]obs.Span{}
				for _, sp := range sys.Spans().ByTrace(id) {
					byComp[sp.Component] = sp
				}
				return byComp
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no single trace links %v; spans:\n%+v", want, sys.Spans().Last(128))
	return nil
}

// checkApplyChain checks the causal edges, not just co-membership, of
// bus/publish → policy/apply → pcp/flush_compile → proxy/flow_mod_write:
// every hop's Parent must be the span id of the hop that caused it.
func checkApplyChain(t *testing.T, byComp map[string]obs.Span) {
	t.Helper()
	pub, pol := byComp[obs.CompBus], byComp[obs.CompPolicy]
	flush, fm := byComp[obs.CompPCP], byComp[obs.CompProxy]
	if pol.Parent != pub.ID || pol.Stage != "apply" {
		t.Errorf("policy span = %+v, want an apply parented on bus publish %d", pol, pub.ID)
	}
	if flush.Parent != pol.ID || flush.Stage != "flush_compile" {
		t.Errorf("flush span = %+v, want flush_compile parented on policy apply %d", flush, pol.ID)
	}
	if fm.Parent != flush.ID || fm.Stage != "flow_mod_write" || fm.DPID != 1 {
		t.Errorf("flow-mod span = %+v, want flow_mod_write on dpid 1 parented on flush %d", fm, flush.ID)
	}
}

// TestAuditChainRoundTrip is the CI audit step: boot a system with the
// audit log enabled, drive bindings, policy mutations and admissions, and
// check the on-disk hash chain verifies — then stops verifying once a
// single byte is flipped.
func TestAuditChainRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	sys := newTracedSystem(t, dfi.WithAuditLog(path, 0))
	sys.PCP().AttachSwitch(1, nopSwitch{})

	erm := sys.Entity()
	erm.BindIPMAC(netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseMAC("02:00:00:00:00:01"))
	erm.BindHostIP("h1", netpkt.MustParseIPv4("10.0.0.1"))
	erm.BindUserHost("alice", "h1")

	pm := sys.Policy()
	if err := pm.RegisterPDP("ops", 50); err != nil {
		t.Fatal(err)
	}
	id, err := pm.Insert(policy.Rule{PDP: "ops", Action: policy.ActionAllow})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		sys.PCP().Process(admissionRequest(benchFrame()))
	}
	if err := pm.Revoke(id); err != nil {
		t.Fatal(err)
	}

	audit := sys.Audit()
	n, err := audit.Verify()
	if err != nil {
		t.Fatalf("audit chain failed on an untouched log: %v", err)
	}
	// 3 bindings + insert + admissions + revoke + flush, at least.
	if n < 7 {
		t.Fatalf("audited %d records, want >=7", n)
	}
	kinds := map[string]int{}
	for _, r := range audit.Last(64) {
		kinds[r.Kind]++
	}
	if kinds["binding"] < 3 || kinds["policy"] < 2 || kinds["decision"] < 3 {
		t.Fatalf("audit kinds = %v", kinds)
	}

	// One flipped byte anywhere breaks verification.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.VerifyAuditChain(audit.Files(), audit.Head()); err == nil {
		t.Fatal("verification accepted a flipped byte")
	}
}

// admissionRequest wraps a frame in the packet-in request shape the PCP
// admits.
func admissionRequest(frame []byte) *pcp.Request {
	return &pcp.Request{DPID: 1, PacketIn: &openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		Reason:   openflow.PacketInReasonNoMatch,
		Match:    &openflow.Match{InPort: openflow.U32(3)},
		Data:     frame,
	}}
}
