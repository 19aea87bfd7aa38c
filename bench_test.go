// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), plus ablations for the design choices DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem
//
// Table/figure benches report their headline numbers via b.ReportMetric in
// the paper's units; cmd/dfi-bench prints the full tables/series.
package dfi_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/experiments"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/switchsim"
	"github.com/dfi-sdn/dfi/internal/testbed"
)

// BenchmarkTable1 reproduces Table I through experiments.RunTable1: the
// flow-start latency under no load (paper: 5.73 ms ± 3.39 ms on the
// calibrated profile) and one saturation-throughput trial (paper: 1350 ±
// 39 flows/sec).
func BenchmarkTable1(b *testing.B) {
	for _, calibrated := range []bool{true, false} {
		name := "native"
		if calibrated {
			name = "calibrated"
		}
		b.Run(name, func(b *testing.B) {
			var latMs, stdMs, rate float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunTable1(experiments.MicrobenchConfig{
					Calibrated:    calibrated,
					Seed:          42,
					Trials:        1,
					TrialDuration: time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				latMs += float64(res.Latency.Mean) / 1e6
				stdMs += float64(res.Latency.StdDev) / 1e6
				rate += res.ThroughputMean
			}
			n := float64(b.N)
			b.ReportMetric(latMs/n, "ms/flow")
			b.ReportMetric(stdMs/n, "ms/σ")
			b.ReportMetric(rate/n, "flows/sec")
		})
	}
}

// BenchmarkTable2_Breakdown reproduces Table II's per-stage latency
// breakdown through experiments.RunTable2 (paper: binding 2.41 ms, policy
// 2.52 ms, other PCP 0.39 ms, proxy 0.16 ms).
func BenchmarkTable2_Breakdown(b *testing.B) {
	res, err := experiments.RunTable2(experiments.MicrobenchConfig{
		Calibrated: true,
		Seed:       42,
		Flows:      b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.BindingQuery.Mean)/1e6, "ms/binding")
	b.ReportMetric(float64(res.PolicyQuery.Mean)/1e6, "ms/policy")
	b.ReportMetric(float64(res.OtherPCP.Mean)/1e6, "ms/otherPCP")
	b.ReportMetric(float64(res.Proxy.Mean)/1e6, "ms/proxy")
}

// BenchmarkFig4_TTFB reproduces Figure 4: TTFB for new flows vs background
// flow arrival rate, with and without DFI (paper: flat 4–6 ms without DFI;
// ≈22 ms at idle rising to ≈86 ms at 700 flows/sec with DFI, plateauing
// near 200 ms past saturation).
func BenchmarkFig4_TTFB(b *testing.B) {
	for _, rate := range []int{0, 400, 800, 1000} {
		b.Run(fmt.Sprintf("rate=%d", rate), func(b *testing.B) {
			res, err := experiments.RunFig4(experiments.Fig4Config{
				Rates:      []int{rate},
				Samples:    10,
				Calibrated: true,
				Seed:       42,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.WithDFI[0].TTFB.Mean)/1e6, "ms/withDFI")
			b.ReportMetric(float64(res.WithoutDFI[0].TTFB.Mean)/1e6, "ms/withoutDFI")
		})
	}
}

// BenchmarkFig5a_Worm reproduces Figure 5a through experiments.RunFig5a:
// infections from the NotPetya surrogate under each policy condition with
// a 09:00 foothold (paper: Baseline all 92 in ~2 min; S-RBAC all in ~25
// min; AT-RBAC incomplete and slowest).
func BenchmarkFig5a_Worm(b *testing.B) {
	infected := make([]float64, 3)
	firstS := make([]float64, 3)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5a(experiments.Fig5aConfig{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		for c, r := range []*testbed.Result{res.Baseline, res.SRBAC, res.ATRBAC} {
			infected[c] += float64(len(r.Infections))
			if first, ok := r.FirstSpread(); ok {
				firstS[c] += first.Seconds()
			}
		}
	}
	for c, name := range []string{"baseline", "srbac", "atrbac"} {
		b.ReportMetric(infected[c]/float64(b.N), name+"-infected")
		b.ReportMetric(firstS[c]/float64(b.N), name+"-s/first-spread")
	}
}

// BenchmarkFig5b_FootholdHour reproduces Figure 5b: AT-RBAC infections by
// foothold hour (paper: near-total during business hours, collapsing to an
// isolated foothold off-hours).
func BenchmarkFig5b_FootholdHour(b *testing.B) {
	for _, hour := range []int{3, 9, 13, 21} {
		b.Run(fmt.Sprintf("hour=%02d", hour), func(b *testing.B) {
			var infected float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFig5b(experiments.Fig5bConfig{
					Seed:  3,
					Hours: []int{hour},
				})
				if err != nil {
					b.Fatal(err)
				}
				infected += float64(res.Points[0].Infected)
			}
			b.ReportMetric(infected/float64(b.N), "infected")
		})
	}
}

// BenchmarkAblation_ParallelPCP measures saturation throughput as PCP
// workers scale — the paper's suggested path to higher loads ("multiple
// DFI Proxy and PCP instances") — through experiments.RunTable1's
// throughput trial.
func BenchmarkAblation_ParallelPCP(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunTable1(experiments.MicrobenchConfig{
					Flows:         1,
					Trials:        1,
					TrialDuration: time.Second,
					OfferedRate:   8000,
					Calibrated:    true,
					Seed:          42,
					Workers:       workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				total += res.ThroughputMean
			}
			b.ReportMetric(total/float64(b.N), "flows/sec")
		})
	}
}

// BenchmarkAblation_HardTimeouts quantifies the paper's §III-A argument
// against hard timeouts for consistency: a long-running flow under a hard
// timeout keeps re-entering the control plane, while DFI's cookie-scoped
// flush leaves it untouched until policy actually changes.
func BenchmarkAblation_HardTimeouts(b *testing.B) {
	run := func(b *testing.B, hardTimeout uint16) float64 {
		// Simulated long-running flow: 120 virtual seconds of steady
		// packets against a rule with or without a hard timeout.
		clk := newVirtualClock()
		sw := switchsim.NewSwitch(switchsim.Config{DPID: 1, Clock: clk})
		if err := sw.AttachPort(2, func([]byte) {}); err != nil {
			b.Fatal(err)
		}
		installAllow(b, sw, hardTimeout)
		frame := benchFrame()
		reEntries := 0
		for sec := 0; sec < 120; sec++ {
			clk.advance(time.Second)
			sw.SweepTimeouts()
			outcome, _ := sw.Evaluate(1, frame)
			if outcome == switchsim.OutcomeForward {
				continue
			}
			// Control-plane re-entry: reinstall, as the controller would.
			reEntries++
			installAllow(b, sw, hardTimeout)
		}
		return float64(reEntries)
	}
	b.Run("hard-timeout-30s", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total += run(b, 30)
		}
		b.ReportMetric(total/float64(b.N), "re-entries/2min-flow")
	})
	b.Run("cookie-flush", func(b *testing.B) {
		var total float64
		for i := 0; i < b.N; i++ {
			total += run(b, 0)
		}
		b.ReportMetric(total/float64(b.N), "re-entries/2min-flow")
	})
}

// BenchmarkAblation_ResolveAtDecision measures the cost of DFI's choice to
// resolve identifiers at decision time (always-current bindings) against a
// hypothetical insert-time precompilation (stale on any binding change):
// the per-flow price of correctness.
func BenchmarkAblation_ResolveAtDecision(b *testing.B) {
	sys, err := dfi.New(dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		a, c := bufpipe.New()
		ctl := controller.New(controller.Config{})
		go func() { _ = ctl.Serve(c) }()
		return a, nil
	}))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	erm := sys.Entity()
	mac := netpkt.MustParseMAC("02:00:00:00:00:01")
	ip := netpkt.MustParseIPv4("10.0.0.1")
	erm.BindIPMAC(ip, mac)
	erm.BindHostIP("h1", ip)
	erm.BindUserHost("alice", "h1")

	b.Run("decision-time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := erm.Resolve(dfi.Observed{MAC: mac, HasIP: true, IP: ip}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert-time-precompiled", func(b *testing.B) {
		// The stale alternative: a frozen map captured at insert.
		precompiled := map[dfi.IPv4]string{ip: "h1"}
		for i := 0; i < b.N; i++ {
			_ = precompiled[ip]
		}
	})
}

// --- small helpers for the ablations ---

type virtualClock struct {
	now time.Time
}

func newVirtualClock() *virtualClock {
	return &virtualClock{now: time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)}
}

func (c *virtualClock) Now() time.Time          { return c.now }
func (c *virtualClock) Sleep(d time.Duration)   { c.now = c.now.Add(d) }
func (c *virtualClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func installAllow(b *testing.B, sw interface {
	WriteFlowMod(*openflow.FlowMod) error
}, hardTimeout uint16) {
	b.Helper()
	err := sw.WriteFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowModAdd, Priority: 100,
		HardTimeout: hardTimeout,
		BufferID:    openflow.NoBuffer,
		Match:       &openflow.Match{},
		Instructions: []openflow.Instruction{
			&openflow.InstructionApplyActions{
				Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
}

func benchFrame() []byte {
	return netpkt.BuildTCP(
		netpkt.MustParseMAC("02:00:00:00:00:01"), netpkt.MustParseMAC("02:00:00:00:00:02"),
		netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseIPv4("10.0.0.2"),
		&netpkt.TCPSegment{SrcPort: 1000, DstPort: 80},
	)
}

// BenchmarkAblation_WildcardCache measures the control-plane load saved by
// the CAB-ACME-style widened-rule extension: many flows between one host
// pair under a MAC-pair policy cost one packet-in with caching on, versus
// one per flow with exact rules.
func BenchmarkAblation_WildcardCache(b *testing.B) {
	run := func(b *testing.B, widen bool) {
		for i := 0; i < b.N; i++ {
			opts := []dfi.Option{
				dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
					a, c := bufpipe.New()
					ctl := controller.New(controller.Config{})
					go func() { _ = ctl.Serve(c) }()
					return a, nil
				}),
			}
			if widen {
				opts = append(opts, dfi.WithWildcardCaching())
			}
			sys, err := dfi.New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			macA := netpkt.MustParseMAC("02:00:00:00:00:01")
			macB := netpkt.MustParseMAC("02:00:00:00:00:02")
			if err := sys.Policy().RegisterPDP("p", 50); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Policy().Insert(dfi.Rule{
				PDP: "p", Action: dfi.ActionAllow,
				Src: dfi.EndpointSpec{MAC: dfi.MACOf(macA)},
				Dst: dfi.EndpointSpec{MAC: dfi.MACOf(macB)},
			}); err != nil {
				b.Fatal(err)
			}

			sw := switchsim.NewSwitch(switchsim.Config{DPID: 1})
			swEnd, dfiEnd := bufpipe.New()
			go func() { _ = sw.ServeControl(swEnd) }()
			go func() { _ = sys.ServeSwitch(dfiEnd) }()
			if !sw.WaitConfigured(5 * time.Second) {
				b.Fatal("switch never configured")
			}
			if err := sw.AttachPort(1, func([]byte) {}); err != nil {
				b.Fatal(err)
			}
			if err := sw.AttachPort(2, func([]byte) {}); err != nil {
				b.Fatal(err)
			}

			// Prime with the first flow and wait for its rule to land,
			// then measure the control-plane cost of 99 sibling flows.
			const flows = 100
			mkFrame := func(f int) []byte {
				return netpkt.BuildTCP(macA, macB,
					netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseIPv4("10.0.0.2"),
					&netpkt.TCPSegment{SrcPort: uint16(30000 + f), DstPort: 80, Flags: netpkt.TCPSyn})
			}
			sw.Inject(1, mkFrame(0))
			deadline := time.Now().Add(5 * time.Second)
			for sw.FlowCount(0) == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			for f := 1; f < flows; f++ {
				sw.Inject(1, mkFrame(f))
			}
			deadline = time.Now().Add(5 * time.Second)
			want := uint64(flows)
			if widen {
				want = 1
			}
			for sys.PCP().Metrics().Processed() < want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			b.ReportMetric(float64(sys.PCP().Metrics().Processed()), "admissions/100flows")
			sys.Close()
		}
	}
	b.Run("exact-rules", func(b *testing.B) { run(b, false) })
	b.Run("wildcard-cache", func(b *testing.B) { run(b, true) })
}

// --- admission fast-path microbenchmarks ---

// policyBenchManager builds a Manager holding n rules with the field mix a
// real deployment shows: IP-pinned, MAC-pinned, user/host-scoped and
// port-only (residual) rules spread across three PDP priorities.
func policyBenchManager(tb testing.TB, n int) *policy.Manager {
	tb.Helper()
	pm := policy.NewManager()
	for i, prio := range []int{10, 20, 30} {
		if err := pm.RegisterPDP(fmt.Sprintf("pdp%d", i), prio); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		r := policy.Rule{PDP: fmt.Sprintf("pdp%d", i%3)}
		if i%2 == 0 {
			r.Action = policy.ActionAllow
		} else {
			r.Action = policy.ActionDeny
		}
		switch i % 6 {
		case 0:
			ip := netpkt.IPv4FromUint32(0x0a010000 + uint32(i))
			r.Src.IP = &ip
		case 1:
			ip := netpkt.IPv4FromUint32(0x0a020000 + uint32(i))
			r.Dst.IP = &ip
		case 2:
			mac := netpkt.MAC{0x02, 0x10, byte(i >> 16), byte(i >> 8), byte(i), 0x01}
			r.Src.MAC = &mac
		case 3:
			r.Src.User = fmt.Sprintf("user%d", i)
		case 4:
			r.Dst.Host = fmt.Sprintf("host%d", i)
		case 5:
			port := uint16(1024 + i%40000)
			r.Src.Port = &port
		}
		if _, err := pm.Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
	return pm
}

// policyBenchFlows returns the query mix: a flow hitting an IP-indexed
// rule, one hitting a user-scoped rule, and one matching nothing (the
// default-deny worst case, which a linear scan pays in full).
func policyBenchFlows(n int) []*policy.FlowView {
	hit := &policy.FlowView{
		EtherType: netpkt.EtherTypeIPv4, HasIPProto: true, IPProto: netpkt.ProtoTCP,
		Src: policy.EndpointAttrs{
			HasIP: true, IP: netpkt.IPv4FromUint32(0x0a010000), // rule 0's Src.IP
			MAC: netpkt.MAC{0x02, 0xaa, 0, 0, 0, 1}, HasPort: true, Port: 40000,
		},
		Dst: policy.EndpointAttrs{
			HasIP: true, IP: netpkt.IPv4FromUint32(0x0afe0001),
			MAC: netpkt.MAC{0x02, 0xaa, 0, 0, 0, 2}, HasPort: true, Port: 80,
		},
	}
	userHit := &policy.FlowView{
		EtherType: netpkt.EtherTypeIPv4, HasIPProto: true, IPProto: netpkt.ProtoTCP,
		Src: policy.EndpointAttrs{
			Users: []string{"user3"}, Host: "h-user3",
			HasIP: true, IP: netpkt.IPv4FromUint32(0x0ac80001),
			MAC: netpkt.MAC{0x02, 0xbb, 0, 0, 0, 1},
		},
		Dst: policy.EndpointAttrs{
			HasIP: true, IP: netpkt.IPv4FromUint32(0x0ac80002),
			MAC: netpkt.MAC{0x02, 0xbb, 0, 0, 0, 2},
		},
	}
	if n < 4 {
		// user3 only exists with ≥4 rules; fall back to the miss flow.
		userHit = hit
	}
	miss := &policy.FlowView{
		EtherType: netpkt.EtherTypeIPv4, HasIPProto: true, IPProto: netpkt.ProtoUDP,
		Src: policy.EndpointAttrs{
			HasIP: true, IP: netpkt.IPv4FromUint32(0x0afd0001),
			MAC: netpkt.MAC{0x02, 0xcc, 0, 0, 0, 1}, HasPort: true, Port: 53,
		},
		Dst: policy.EndpointAttrs{
			HasIP: true, IP: netpkt.IPv4FromUint32(0x0afd0002),
			MAC: netpkt.MAC{0x02, 0xcc, 0, 0, 0, 2}, HasPort: true, Port: 53,
		},
	}
	return []*policy.FlowView{hit, userHit, miss}
}

func benchmarkPolicyQuery(b *testing.B, n int) {
	pm := policyBenchManager(b, n)
	flows := policyBenchFlows(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.Query(flows[i%len(flows)])
	}
}

func BenchmarkPolicyQuery_10Rules(b *testing.B)  { benchmarkPolicyQuery(b, 10) }
func BenchmarkPolicyQuery_100Rules(b *testing.B) { benchmarkPolicyQuery(b, 100) }
func BenchmarkPolicyQuery_1kRules(b *testing.B)  { benchmarkPolicyQuery(b, 1000) }
func BenchmarkPolicyQuery_10kRules(b *testing.B) { benchmarkPolicyQuery(b, 10000) }

// nopSwitch discards installed flow rules.
type nopSwitch struct{}

func (nopSwitch) WriteFlowMod(*openflow.FlowMod) error { return nil }

// BenchmarkPCP_AdmissionHotPath measures one full admission through
// pcp.Process against a 1k-rule policy: "cold" runs the complete
// parse → MAC-sensor → binding query → policy query → compile path every
// time (flow-decision cache disabled); "cache-hit" re-admits the same flow
// and is served by the epoch-validated decision cache.
func BenchmarkPCP_AdmissionHotPath(b *testing.B) {
	run := func(b *testing.B, cacheSize int) {
		pm := policyBenchManager(b, 1000)
		erm := entity.NewManager()
		erm.BindIPMAC(netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseMAC("02:00:00:00:00:01"))
		erm.BindHostIP("h1", netpkt.MustParseIPv4("10.0.0.1"))
		erm.BindUserHost("alice", "h1")
		p := pcp.New(pcp.Config{Entity: erm, Policy: pm, FlowCacheSize: cacheSize})
		p.AttachSwitch(1, nopSwitch{})
		frame := benchFrame()
		req := &pcp.Request{DPID: 1, PacketIn: &openflow.PacketIn{
			BufferID: openflow.NoBuffer,
			Reason:   openflow.PacketInReasonNoMatch,
			Match:    &openflow.Match{InPort: openflow.U32(3)},
			Data:     frame,
		}}
		p.Process(req) // prime
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Process(req)
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, -1) })
	b.Run("cache-hit", func(b *testing.B) { run(b, 0) })
}

// BenchmarkExtension_IncidentResponse quantifies the paper's closing claim
// (§V-B) through experiments.RunIncidentResponse: AT-RBAC's slowdown buys
// an incident-response team enough time to contain the outbreak — a
// 5-minute quarantine-after-detection leaves the fast conditions fully
// infected but collapses AT-RBAC's final count.
func BenchmarkExtension_IncidentResponse(b *testing.B) {
	infected := map[string]float64{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunIncidentResponse(experiments.IncidentConfig{
			Seed:   3,
			Delays: []time.Duration{5 * time.Minute},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			ir := "no-IR"
			if p.Delay > 0 {
				ir = "5m-IR"
			}
			infected[p.Condition.String()+"-infected-"+ir] += float64(p.Infected)
		}
	}
	for unit, n := range infected {
		b.ReportMetric(n/float64(b.N), unit)
	}
}
