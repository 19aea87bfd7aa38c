package pcp

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

// oracle universe: three hosts on one switch, one user each.
var (
	oracleIPs  = []netpkt.IPv4{netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseIPv4("10.0.0.2"), netpkt.MustParseIPv4("10.0.0.3")}
	oracleMACs = []netpkt.MAC{{2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2}, {2, 0, 0, 0, 0, 3}}
	oracleUsrs = []string{"alice", "bob", "carol"}
	oracleHsts = []string{"h1", "h2", "h3"}
)

func bindOracleUniverse(erm *entity.Manager) {
	for i := range oracleIPs {
		erm.BindUserHost(oracleUsrs[i], oracleHsts[i])
		erm.BindHostIP(oracleHsts[i], oracleIPs[i])
		erm.BindIPMAC(oracleIPs[i], oracleMACs[i])
		erm.BindMACLocation(oracleMACs[i], entity.Location{DPID: 1, Port: uint32(i + 1)})
	}
}

// registerOraclePDPs registers PDPs "low" (priority 10) and "high"
// (priority 20).
func registerOraclePDPs(t testing.TB, pm *policy.Manager) {
	t.Helper()
	for _, pdp := range []struct {
		name string
		prio int
	}{{"low", 10}, {"high", 20}} {
		if err := pm.RegisterPDP(pdp.name, pdp.prio); err != nil {
			t.Fatal(err)
		}
	}
}

// newForwardingSwitch returns a simulated switch (dpid 1) whose table 1
// holds a match-all forwarder, so an installed allow entry shows up as
// OutcomeForward and a deny entry as OutcomeDrop.
func newForwardingSwitch(t testing.TB) *switchsim.Switch {
	t.Helper()
	sw := switchsim.NewSwitch(switchsim.Config{DPID: 1})
	if err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 1, Command: openflow.FlowModAdd, Priority: 1, BufferID: openflow.NoBuffer,
		Match: &openflow.Match{},
		Instructions: []openflow.Instruction{&openflow.InstructionApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}},
	}); err != nil {
		t.Fatal(err)
	}
	return sw
}

// newOracleEnv builds a default-config PCP over the bound oracle universe
// with a forwarding switch attached at dpid 1 through client (nil selects
// the switch itself: its WriteFlowMod clones matches, so the PCP's
// no-retain contract holds).
func newOracleEnv(t testing.TB, client func(*switchsim.Switch) SwitchClient) (*PCP, *policy.Manager, *entity.Manager, *switchsim.Switch) {
	t.Helper()
	sw := newForwardingSwitch(t)
	erm := entity.NewManager()
	pm := policy.NewManager()
	p := New(Config{Entity: erm, Policy: pm})
	bindOracleUniverse(erm)
	if client == nil {
		p.AttachSwitch(1, sw)
	} else {
		p.AttachSwitch(1, client(sw))
	}
	registerOraclePDPs(t, pm)
	return p, pm, erm, sw
}

// oracleRule builds a random rule over the oracle universe.
func oracleRule(rng *rand.Rand) policy.Rule {
	r := policy.Rule{PDP: []string{"low", "high"}[rng.Intn(2)], Action: policy.ActionAllow}
	if rng.Intn(2) == 0 {
		r.Action = policy.ActionDeny
	}
	spec := func() policy.EndpointSpec {
		var e policy.EndpointSpec
		i := rng.Intn(3)
		switch rng.Intn(4) {
		case 0:
			e.User = oracleUsrs[i]
		case 1:
			e.Host = oracleHsts[i]
		case 2:
			e.IP = &oracleIPs[i]
		case 3:
			e.MAC = &oracleMACs[i]
		}
		if rng.Intn(4) == 0 {
			port := uint16(rng.Intn(3) + 1)
			e.Port = &port
		}
		return e
	}
	r.Src = spec()
	r.Dst = spec()
	if rng.Intn(3) == 0 {
		proto := []uint8{netpkt.ProtoTCP, netpkt.ProtoUDP}[rng.Intn(2)]
		r.Props.IPProto = &proto
	}
	return r
}

// batchApply lands 1–4 random inserts and 0–2 revokes of live ids as one
// ApplyCtx, so the oracles also cover one union flush for several rules,
// and returns the updated live set.
func batchApply(t testing.TB, rng *rand.Rand, pm *policy.Manager, live []policy.RuleID) []policy.RuleID {
	t.Helper()
	inserts := make([]policy.Rule, 1+rng.Intn(4))
	for i := range inserts {
		inserts[i] = oracleRule(rng)
	}
	var revokes []policy.RuleID
	for n := rng.Intn(3); n > 0 && len(live) > 0; n-- {
		i := rng.Intn(len(live))
		revokes = append(revokes, live[i])
		live = append(live[:i], live[i+1:]...)
	}
	ids, _, err := pm.ApplyCtx(obs.SpanContext{}, inserts, revokes)
	if err != nil {
		t.Fatal(err)
	}
	return append(live, ids...)
}

// oracleProbes enumerates data-plane probe frames over the universe: TCP
// and UDP on the port grid plus ARP, between every endpoint pair, injected
// at the source's bound port.
type probe struct {
	inPort uint32
	frame  []byte
}

func oracleProbes() []probe {
	var ps []probe
	for i := range oracleIPs {
		for j := range oracleIPs {
			if i == j {
				continue
			}
			in := uint32(i + 1)
			for _, sp := range []uint16{1, 2, 3} {
				for _, dp := range []uint16{1, 2, 3} {
					ps = append(ps, probe{in, netpkt.BuildTCP(oracleMACs[i], oracleMACs[j], oracleIPs[i], oracleIPs[j],
						&netpkt.TCPSegment{SrcPort: sp, DstPort: dp, Flags: netpkt.TCPSyn})})
					ps = append(ps, probe{in, netpkt.BuildUDP(oracleMACs[i], oracleMACs[j], oracleIPs[i], oracleIPs[j],
						&netpkt.UDPDatagram{SrcPort: sp, DstPort: dp})})
				}
			}
			ps = append(ps, probe{in, netpkt.BuildARP(&netpkt.ARP{
				Op: netpkt.ARPRequest, SenderMAC: oracleMACs[i], SenderIP: oracleIPs[i],
				TargetMAC: oracleMACs[j], TargetIP: oracleIPs[j]})})
		}
	}
	return ps
}

// admit runs one probe through the admission path.
func admit(p *PCP, pr probe) {
	p.Process(&Request{DPID: 1, PacketIn: packetInFor(pr.frame, pr.inPort)})
}

// policyAllows reports whether current policy allows the probe: the
// decision a fresh admission would make, bypassing cache and switch.
func policyAllows(t testing.TB, p *PCP, pr probe) bool {
	t.Helper()
	key, err := netpkt.ExtractFlowKey(pr.frame)
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{DPID: 1, PacketIn: packetInFor(pr.frame, pr.inPort)}
	dec, _, _, _, _, _ := p.decide(req, key, pr.inPort)
	if dec.Err != nil {
		t.Fatal(dec.Err)
	}
	return dec.Allow
}

// TestDeltaStateEquivalenceOracle: a switch that lived through rule churn
// and binding churn, with admissions after every step, ends up
// data-plane-equivalent to a switch on which every probe was admitted
// fresh at the final epoch — except where an entry was flushed and the
// probe will simply be re-admitted. The cookie flushes neither leak stale
// entries nor let a changed decision survive.
func TestDeltaStateEquivalenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p, pm, erm, incr := newOracleEnv(t, nil)
	defer p.Stop()
	probes := oracleProbes()

	var live []policy.RuleID
	for step := 0; step < 80; step++ {
		switch {
		case len(live) > 0 && rng.Intn(4) == 0:
			i := rng.Intn(len(live))
			if err := pm.Revoke(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case rng.Intn(6) == 0:
			// Binding churn: a user roams to another host, or a MAC moves,
			// and is restored before the next admission.
			i, j := rng.Intn(3), rng.Intn(3)
			if rng.Intn(2) == 0 {
				erm.UnbindUserHost(oracleUsrs[i], oracleHsts[i])
				erm.BindUserHost(oracleUsrs[i], oracleHsts[j])
				erm.UnbindUserHost(oracleUsrs[i], oracleHsts[j])
				erm.BindUserHost(oracleUsrs[i], oracleHsts[i])
			} else {
				erm.BindMACLocation(oracleMACs[i], entity.Location{DPID: 1, Port: uint32(j + 4)})
				erm.BindMACLocation(oracleMACs[i], entity.Location{DPID: 1, Port: uint32(i + 1)})
			}
		case rng.Intn(3) == 0:
			live = batchApply(t, rng, pm, live)
		default:
			id, err := pm.Insert(oracleRule(rng))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		for k := 0; k < 8; k++ {
			admit(p, probes[rng.Intn(len(probes))])
		}
	}

	fresh := newForwardingSwitch(t)
	p.AttachSwitch(1, fresh)
	for _, pr := range probes {
		admit(p, pr)
	}
	if fresh.FlowCount(0) == 0 {
		t.Fatal("fresh switch admission installed nothing")
	}
	hits := 0
	for n, pr := range probes {
		io, it := incr.Evaluate(pr.inPort, pr.frame)
		if io == switchsim.OutcomeMiss && it == 0 {
			continue
		}
		hits++
		if fo, ft := fresh.Evaluate(pr.inPort, pr.frame); io != fo {
			t.Fatalf("probe %d (in-port %d): churned switch (%v, table %d) disagrees with fresh admission (%v, table %d)",
				n, pr.inPort, io, it, fo, ft)
		}
	}
	if hits == 0 {
		t.Fatal("churned switch holds no entries; oracle exercises nothing")
	}
}

// TestDeltaUnblockRepushesAllow: revoking the deny that blocked an allow
// flushes the deny entry the flow was admitted under, so the flow's next
// packet is re-admitted and pushes the allow entry.
func TestDeltaUnblockRepushesAllow(t *testing.T) {
	p, pm, _, sw := newOracleEnv(t, nil)
	defer p.Stop()
	port := uint16(445)
	denyID, err := pm.Insert(policy.Rule{PDP: "high", Action: policy.ActionDeny,
		Src: policy.EndpointSpec{User: "alice"}, Dst: policy.EndpointSpec{Host: "h2", Port: &port}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Insert(policy.Rule{PDP: "low", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{User: "alice"}, Dst: policy.EndpointSpec{Host: "h2"}}); err != nil {
		t.Fatal(err)
	}
	flow := probe{1, netpkt.BuildTCP(oracleMACs[0], oracleMACs[1], oracleIPs[0], oracleIPs[1],
		&netpkt.TCPSegment{SrcPort: 40000, DstPort: port, Flags: netpkt.TCPSyn})}
	admit(p, flow)
	if o, _ := sw.Evaluate(flow.inPort, flow.frame); o != switchsim.OutcomeDrop {
		t.Fatalf("flow blocked by a higher-priority deny evaluated to %v, want drop", o)
	}
	if err := pm.Revoke(denyID); err != nil {
		t.Fatal(err)
	}
	if o, tbl := sw.Evaluate(flow.inPort, flow.frame); o != switchsim.OutcomeMiss || tbl != 0 {
		t.Fatalf("deny entry survived its revocation: (%v, table %d)", o, tbl)
	}
	admit(p, flow)
	if o, _ := sw.Evaluate(flow.inPort, flow.frame); o != switchsim.OutcomeForward {
		t.Fatalf("re-admitted flow evaluated to %v, want forward", o)
	}
}

// TestDenyAddEvictsPushedAllow: a deny arriving above an allow pulls the
// allow's installed entries out of the data plane, even though the deny is
// narrower (port-pinned) than the allow.
func TestDenyAddEvictsPushedAllow(t *testing.T) {
	p, pm, _, sw := newOracleEnv(t, nil)
	defer p.Stop()
	if _, err := pm.Insert(policy.Rule{PDP: "low", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{User: "alice"}, Dst: policy.EndpointSpec{Host: "h2"}}); err != nil {
		t.Fatal(err)
	}
	port := uint16(445)
	flow := probe{1, netpkt.BuildTCP(oracleMACs[0], oracleMACs[1], oracleIPs[0], oracleIPs[1],
		&netpkt.TCPSegment{SrcPort: 40000, DstPort: port, Flags: netpkt.TCPSyn})}
	admit(p, flow)
	if o, _ := sw.Evaluate(flow.inPort, flow.frame); o != switchsim.OutcomeForward {
		t.Fatalf("allowed flow evaluated to %v, want forward", o)
	}
	if _, err := pm.Insert(policy.Rule{PDP: "high", Action: policy.ActionDeny,
		Src: policy.EndpointSpec{User: "alice"}, Dst: policy.EndpointSpec{Host: "h2", Port: &port}}); err != nil {
		t.Fatal(err)
	}
	if o, _ := sw.Evaluate(flow.inPort, flow.frame); o == switchsim.OutcomeForward {
		t.Fatal("stale allow still forwards traffic the new deny covers")
	}
}

// TestEqualPriorityDenyFlushesAllow: deny wins priority ties, so a deny
// inserted at the same priority as an overlapping allow must evict the
// allow's installed entries — two lines under one pdp block.
func TestEqualPriorityDenyFlushesAllow(t *testing.T) {
	p, pm, _, sw := newOracleEnv(t, nil)
	defer p.Stop()
	if _, err := pm.Insert(policy.Rule{PDP: "low", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{User: "alice"}}); err != nil {
		t.Fatal(err)
	}
	flow := probe{1, netpkt.BuildTCP(oracleMACs[0], oracleMACs[1], oracleIPs[0], oracleIPs[1],
		&netpkt.TCPSegment{SrcPort: 40000, DstPort: 80, Flags: netpkt.TCPSyn})}
	admit(p, flow)
	if o, _ := sw.Evaluate(flow.inPort, flow.frame); o != switchsim.OutcomeForward {
		t.Fatalf("allowed flow evaluated to %v, want forward", o)
	}
	if _, err := pm.Insert(policy.Rule{PDP: "low", Action: policy.ActionDeny,
		Src: policy.EndpointSpec{Host: "h1"}, Dst: policy.EndpointSpec{User: "bob"}}); err != nil {
		t.Fatal(err)
	}
	if o, _ := sw.Evaluate(flow.inPort, flow.frame); o == switchsim.OutcomeForward {
		t.Fatal("allow entry still forwards after an equal-priority deny covering the flow")
	}
}

// revokeOnFirstAdd passes flow mods through to a simulated switch but runs
// revoke just before the first table-0 add: the revocation publishes and
// flushes between the admission's decision and its install.
type revokeOnFirstAdd struct {
	*switchsim.Switch
	once   sync.Once
	revoke func()
}

func (c *revokeOnFirstAdd) WriteFlowMod(fm *openflow.FlowMod) error {
	if fm.Command == openflow.FlowModAdd && fm.TableID == 0 {
		c.once.Do(c.revoke)
	}
	return c.Switch.WriteFlowMod(fm)
}

// TestRevokeBetweenDecideAndInstall: an allow decided before a revocation
// but written after the revocation's cookie delete must not stay in table
// 0 once Process returns.
func TestRevokeBetweenDecideAndInstall(t *testing.T) {
	var pm *policy.Manager
	var id policy.RuleID
	p, pm, _, sw := newOracleEnv(t, func(sw *switchsim.Switch) SwitchClient {
		return &revokeOnFirstAdd{Switch: sw, revoke: func() {
			if err := pm.Revoke(id); err != nil {
				t.Error(err)
			}
		}}
	})
	defer p.Stop()
	var err error
	id, err = pm.Insert(policy.Rule{PDP: "low", Action: policy.ActionAllow,
		Src: policy.EndpointSpec{User: "alice"}})
	if err != nil {
		t.Fatal(err)
	}
	flow := probe{1, netpkt.BuildTCP(oracleMACs[0], oracleMACs[1], oracleIPs[0], oracleIPs[1],
		&netpkt.TCPSegment{SrcPort: 40000, DstPort: 80, Flags: netpkt.TCPSyn})}
	admit(p, flow)
	if pm.Len() != 0 {
		t.Fatal("the switch wrapper never revoked the rule")
	}
	if o, _ := sw.Evaluate(flow.inPort, flow.frame); o == switchsim.OutcomeForward {
		t.Fatal("allow decided before the revocation still forwards after Process returned")
	}
}

// TestConcurrentMutationsNoStaleAllow runs admissions and rule churn
// concurrently (meaningful under -race), then checks the terminal
// invariant: after every rule is revoked, no flow forwards.
func TestConcurrentMutationsNoStaleAllow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, pm, _, sw := newOracleEnv(t, nil)
	defer p.Stop()

	probes := oracleProbes()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				admit(p, probes[r.Intn(len(probes))])
			}
		}(int64(w))
	}
	var live []policy.RuleID
	for step := 0; step < 60; step++ {
		if len(live) > 4 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if err := pm.Revoke(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			continue
		}
		id, err := pm.Insert(oracleRule(rng))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	wg.Wait()

	// Quiesced: revoke everything. No installed allow may survive.
	for _, id := range live {
		if err := pm.Revoke(id); err != nil {
			t.Fatal(err)
		}
	}
	for n, pr := range probes {
		if o, _ := sw.Evaluate(pr.inPort, pr.frame); o == switchsim.OutcomeForward {
			t.Fatalf("probe %d still forwards after all rules were revoked (stale allow entry)", n)
		}
	}
}

// TestInstalledEntriesAgreeWithPolicy is the no-stale-entry invariant of
// the cookie-flush path under concurrency: with 4 goroutines admitting
// probes during 60 random inserts, revokes and batched applies (one union
// flush for several rules), every probe that afterwards
// hits a table-0 entry must forward exactly when current policy allows
// it. Stale allows come from inserts that flush too little; stale denies
// (and allows) from admissions whose install lands after a flush.
func TestInstalledEntriesAgreeWithPolicy(t *testing.T) {
	probes := oracleProbes()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, pm, _, sw := newOracleEnv(t, nil)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(r *rand.Rand) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						admit(p, probes[r.Intn(len(probes))])
					}
				}
			}(rand.New(rand.NewSource(seed*4 + int64(w))))
		}
		var live []policy.RuleID
		for step := 0; step < 60; step++ {
			switch {
			case len(live) > 4 && rng.Intn(3) == 0:
				i := rng.Intn(len(live))
				if err := pm.Revoke(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			case rng.Intn(3) == 0:
				live = batchApply(t, rng, pm, live)
			default:
				id, err := pm.Insert(oracleRule(rng))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
		}
		close(stop)
		wg.Wait()
		p.Stop()

		// A table-0 miss is always fine: the packet-in re-enters admission.
		for n, pr := range probes {
			o, tbl := sw.Evaluate(pr.inPort, pr.frame)
			if o == switchsim.OutcomeMiss && tbl == 0 {
				continue
			}
			if forwards, allowed := o == switchsim.OutcomeForward, policyAllows(t, p, pr); forwards != allowed {
				t.Fatalf("seed %d, probe %d (in-port %d): table-0 entry forwards=%v, current policy allows=%v",
					seed, n, pr.inPort, forwards, allowed)
			}
		}
	}
}
