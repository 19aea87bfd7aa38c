// Package ledger times the public facade of each layer dfid is assembled
// from, single-threaded and in this process, on the inputs a workload
// generated. Each row is the median over several rounds of nanoseconds per
// operation, with allocations per operation where a layer has a budget for
// them. The rows are the per-layer half of the benchmark; how they add up
// against the end-to-end medians is computed by the caller.
//
// Only facades are called: dfi.System and what it hands out, and the codec
// packages. Which policy-lookup or relay implementation sits behind them is
// whatever dfi.New assembles by default.
package ledger

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/benchmark/gen"
	"github.com/dfi-sdn/dfi/internal/bus"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/policytext/compile/verify"
	"github.com/dfi-sdn/dfi/internal/sensors"
)

const (
	rounds   = 7
	dpid     = 0x1ed9e7
	hotFlows = 256 // working set of the cache-hit row
)

// row runs fn rounds times; fn performs ops operations and returns the time
// they took, excluding whatever it had to prepare. It returns the median
// nanoseconds and the median allocations per operation.
func row(ops int, fn func() time.Duration) (ns, allocs float64) {
	nss, als := make([]float64, rounds), make([]float64, rounds)
	var before, after runtime.MemStats
	for r := range nss {
		runtime.ReadMemStats(&before)
		d := fn()
		runtime.ReadMemStats(&after)
		nss[r] = float64(d) / float64(ops)
		als[r] = float64(after.Mallocs-before.Mallocs) / float64(ops)
	}
	sort.Float64s(nss)
	sort.Float64s(als)
	return nss[rounds/2], als[rounds/2]
}

// timed is row for the common case: nothing to prepare.
func timed(ops int, op func(i int)) (ns, allocs float64) {
	return row(ops, func() time.Duration {
		start := time.Now()
		for i := 0; i < ops; i++ {
			op(i)
		}
		return time.Since(start)
	})
}

// sink is a switch write path that keeps nothing.
type sink struct{ mods int }

func (s *sink) WriteFlowMod(*openflow.FlowMod) error { s.mods++; return nil }

// Sink results so the compiler cannot drop the measured calls.
var (
	sinkKey netpkt.FlowKey
	sinkDec policy.Decision
	sinkRes entity.Resolution
	sinkAny any
)

// Run measures every row on in.
func Run(in *gen.Inputs) (map[string]float64, error) {
	out := map[string]float64{}

	// One flow per list entry, as the load generators would send it.
	flows := append(append([]gen.Flow(nil), in.Allow...), in.Deny...)
	packetIn := func(f gen.Flow, sport uint16, table uint8) *openflow.PacketIn {
		src, dst := &in.Hosts[f.Src], &in.Hosts[f.Dst]
		return &openflow.PacketIn{
			BufferID: openflow.NoBuffer, TableID: table,
			Match: &openflow.Match{InPort: openflow.U32(uint32(f.Src) + 1)},
			Data: netpkt.BuildTCP(src.MAC, dst.MAC, src.IP, dst.IP,
				&netpkt.TCPSegment{SrcPort: sport, DstPort: f.DPort, Flags: netpkt.TCPSyn, Payload: make([]byte, 10)}),
		}
	}
	pis := make([]*openflow.PacketIn, len(flows))
	frames := make([]openflow.Frame, len(flows))
	for i, f := range flows {
		pis[i] = packetIn(f, uint16(1024+i), 0)
		if err := frames[i].AppendMessageTo(uint32(i), pis[i]); err != nil {
			return nil, err
		}
	}
	n := len(flows)

	// Wire codec.
	var decAllocs, encAllocs float64
	out["openflow.decode_packetin_ns"], decAllocs = timed(4*n, func(i int) {
		_, m, _ := frames[i%n].Decode()
		sinkAny = m
	})
	out["netpkt.extract_flowkey_ns"], _ = timed(16*n, func(i int) {
		sinkKey, _ = netpkt.ExtractFlowKey(pis[i%n].Data)
	})
	key, _ := netpkt.ExtractFlowKey(pis[0].Data)
	verdict := &openflow.FlowMod{
		Cookie: 7, Command: openflow.FlowModAdd, Priority: 100, IdleTimeout: 300,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.PortAny,
		Match:        openflow.ExactMatchFor(key, 1),
		Instructions: []openflow.Instruction{&openflow.InstructionGotoTable{TableID: 1}},
	}
	encBuf := make([]byte, 0, 512)
	out["openflow.encode_flowmod_ns"], encAllocs = timed(16*n, func(i int) {
		encBuf, _ = openflow.AppendMessage(encBuf[:0], uint32(i), verdict)
	})
	out["openflow.allocs_per_frame"] = decAllocs + encAllocs
	var relayed, reply openflow.Frame
	if err := relayed.AppendMessageTo(1, packetIn(flows[0], 2000, 1)); err != nil {
		return nil, err
	}
	if err := reply.AppendMessageTo(1, verdict); err != nil {
		return nil, err
	}
	out["openflow.frame_shift_ns"], _ = timed(64*n, func(i int) {
		// One relayed round trip's rewrites, then undone so the frames last.
		relayed.ShiftPacketInTable(-1)
		reply.ShiftFlowModTables(+1)
		relayed.ShiftPacketInTable(+1)
		reply.ShiftFlowModTables(-1)
	})
	out["openflow.frame_shift_ns"] /= 2

	// The assembled control plane, as dfid builds it minus the sockets.
	ctl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	sys, err := dfi.New(dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", ctl.Addr().String())
	}))
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	em, pm, eng := sys.Entity(), sys.Policy(), sys.PolicyEngine()

	// Entity: bind the population, then resolve the workload's endpoints.
	bindStart := time.Now()
	for i := range in.Hosts {
		h := &in.Hosts[i]
		em.BindUserHost(h.User, h.Name)
		em.BindHostIP(h.Name, h.IP)
		em.BindIPMAC(h.IP, h.MAC)
	}
	out["entity.bind_ns"] = float64(time.Since(bindStart)) / float64(3*len(in.Hosts))
	observed := func(f gen.Flow) (entity.Observed, entity.Observed) {
		src, dst := &in.Hosts[f.Src], &in.Hosts[f.Dst]
		return entity.Observed{MAC: src.MAC, HasIP: true, IP: src.IP, HasLoc: true, Loc: entity.Location{DPID: dpid, Port: uint32(f.Src) + 1}},
			entity.Observed{MAC: dst.MAC, HasIP: true, IP: dst.IP}
	}
	out["entity.resolve_both_ns"], _ = timed(8*n, func(i int) {
		s, d := observed(flows[i%n])
		sinkRes, _, _ = em.ResolveBoth(s, d)
	})

	// Policy text: the stages of a document apply, then the apply itself.
	var doc *policytext.Document
	out["policytext.parse_ns"], _ = timed(3, func(int) {
		doc, err = policytext.Parse(strings.NewReader(in.Policy))
	})
	if err != nil {
		return nil, err
	}
	out["policytext.lower_ns"], _ = timed(3, func(int) {
		sinkAny, err = compile.Lower(doc, time.Now())
	})
	if err != nil {
		return nil, err
	}
	out["policytext.verify_ns"], _ = timed(1, func(int) { sinkAny = verify.Document(doc) })
	if _, err := eng.SetSource(in.Policy); err != nil {
		return nil, fmt.Errorf("ledger: load policy: %w", err)
	}
	edits := [2]string{in.PolicyWithout(in.Probes[0].Line), in.Policy}
	out["policytext.setsource_1line_ns"], _ = timed(2, func(i int) {
		_, err = eng.SetSource(edits[i%2])
	})
	if err != nil {
		return nil, err
	}

	// Policy: lookups over the loaded rules, and one rule in and out.
	views := make([]*policy.FlowView, n)
	for i, f := range flows {
		s, d := observed(f)
		sr, dr, err := em.ResolveBoth(s, d)
		if err != nil {
			return nil, err
		}
		views[i] = &policy.FlowView{
			EtherType: netpkt.EtherTypeIPv4, HasIPProto: true, IPProto: netpkt.ProtoTCP,
			Src: policy.EndpointAttrs{Users: sr.Users, Host: sr.Host, HasIP: true, IP: s.IP, HasPort: true, Port: 2000,
				MAC: s.MAC, HasSwitchPort: true, SwitchPort: s.Loc.Port, HasDPID: true, DPID: dpid},
			Dst: policy.EndpointAttrs{Users: dr.Users, Host: dr.Host, HasIP: true, IP: d.IP, HasPort: true, Port: f.DPort,
				MAC: d.MAC, HasDPID: true, DPID: dpid},
		}
	}
	wrong := 0
	out["policy.query_ns"], _ = timed(8*n, func(i int) {
		sinkDec = pm.Query(views[i%n])
		if (sinkDec.Action == policy.ActionAllow) != flows[i%n].Allow {
			wrong++
		}
	})
	if wrong > 0 {
		return nil, fmt.Errorf("ledger: policy.Manager disagrees with the oracle on %d lookups", wrong)
	}
	if err := pm.RegisterPDP("bench-ledger", 60); err != nil {
		return nil, err
	}
	extra := policy.Rule{PDP: "bench-ledger", Action: policy.ActionDeny,
		Src: policy.EndpointSpec{Host: "ledger-a"}, Dst: policy.EndpointSpec{Host: "ledger-b"}}
	out["policy.insert_revoke_ns"], _ = timed(20, func(int) {
		id, _ := pm.Insert(extra)
		_ = pm.Revoke(id)
	})
	out["policy.insert_revoke_ns"] /= 2

	// PCP: a whole admission, miss and hit, into a sink; then a revocation
	// fanned out to eight of them.
	var sinks [8]sink
	sys.PCP().AttachSwitch(dpid, &sinks[0])
	cold := make([]*openflow.PacketIn, 0, 3*4096)
	for sport := uint16(3000); len(cold) < cap(cold); sport++ {
		for _, f := range flows {
			if len(cold) < cap(cold) {
				cold = append(cold, packetIn(f, sport, 0))
			}
		}
	}
	req := pcp.Request{DPID: dpid}
	admit := func(pi *openflow.PacketIn) {
		req.PacketIn = pi
		sys.PCP().Process(&req)
	}
	// The cold set is three times the default decision cache, walked in
	// order, so the cache never holds the flow that comes next.
	out["pcp.process_miss_ns"], out["pcp.allocs_miss"] = timed(len(cold), func(i int) { admit(cold[i]) })
	// The hit row times a hit, so its working set is one the cache holds
	// whatever its layout: a few hundred flows, checked against the cache's
	// own hit counter. (The 1,400 flows of the lists, in a cache of 4,096
	// entries, hit four times in ten: its sixteen shards fill unevenly.)
	hot := min(n, hotFlows)
	for i := 0; i < hot; i++ {
		admit(pis[i])
	}
	hitsBefore := sys.PCP().Metrics().CacheHits()
	out["pcp.process_hit_ns"], out["pcp.allocs_hit"] = timed(16*hot, func(i int) { admit(pis[i%hot]) })
	if hits := sys.PCP().Metrics().CacheHits() - hitsBefore; hits != uint64(rounds*16*hot) {
		return nil, fmt.Errorf("ledger: the cache-hit row hit the decision cache %d times in %d admissions", hits, rounds*16*hot)
	}
	if sinks[0].mods == 0 {
		return nil, errors.New("ledger: admissions wrote no flow-mods")
	}
	for i := 1; i < len(sinks); i++ {
		sys.PCP().AttachSwitch(dpid+uint64(i), &sinks[i])
	}
	out["pcp.revoke_flush_8sw_ns"], _ = row(20, func() time.Duration {
		var d time.Duration
		for i := 0; i < 20; i++ {
			id, _ := pm.Insert(extra)
			start := time.Now()
			_ = pm.Revoke(id)
			d += time.Since(start)
		}
		return d
	})

	// Bus: a sensor event published → the binding visible to admission.
	fresh := uint32(0)
	out["bus.publish_to_bound_us"], _ = row(200, func() time.Duration {
		start := time.Now()
		for i := 0; i < 200; i++ {
			fresh++
			epoch := em.Epoch()
			_ = sys.EventBus().Publish(bus.Event{Topic: sensors.TopicDNS, Payload: sensors.DNSBinding{
				Host: "ledger-host", IP: netpkt.IPv4FromUint32(0x0ac80000 + fresh)}})
			for em.Epoch() == epoch {
				runtime.Gosched()
			}
		}
		return time.Since(start)
	})
	out["bus.publish_to_bound_us"] /= 1e3

	// Proxy: one relayed frame through the assembled system, over a
	// loopback TCP pair on either side.
	if out["proxy.forward_ns"], err = forward(sys, ctl, &relayed); err != nil {
		return nil, err
	}
	return out, nil
}

// forward connects one switch session through sys to the controller
// listener ctl and times a table-1 packet-in from the switch socket to the
// controller socket, one at a time.
func forward(sys *dfi.System, ctl net.Listener, frame *openflow.Frame) (float64, error) {
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer front.Close()
	sw, err := net.Dial("tcp", front.Addr().String())
	if err != nil {
		return 0, err
	}
	defer sw.Close()
	inner, err := front.Accept()
	if err != nil {
		return 0, err
	}
	if err := sys.HandleSwitch(inner, nil); err != nil {
		return 0, err
	}
	up, err := ctl.Accept()
	if err != nil {
		return 0, err
	}
	defer up.Close()
	deadline := time.Now().Add(10 * time.Second)
	_ = sw.SetDeadline(deadline)
	_ = up.SetDeadline(deadline)

	// The switch announces its datapath first, as a real one would.
	swConn, upConn := openflow.NewConn(sw), openflow.NewConn(up)
	if _, err := swConn.Send(&openflow.FeaturesReply{DatapathID: dpid + 100, NumTables: 8}); err != nil {
		return 0, err
	}
	var got openflow.Frame
	if err := upConn.RecvFrame(&got); err != nil {
		return 0, err
	}
	const ops = 400
	ns, _ := row(ops, func() time.Duration {
		start := time.Now()
		for i := 0; i < ops && err == nil; i++ {
			if _, err = sw.Write(frame.Bytes()); err == nil {
				err = upConn.RecvFrame(&got)
			}
		}
		return time.Since(start)
	})
	if err != nil {
		return 0, fmt.Errorf("ledger: forward: %w", err)
	}
	if got.Type() != openflow.TypePacketIn {
		return 0, fmt.Errorf("ledger: forward: controller side read a %v", got.Type())
	}
	return ns, nil
}
