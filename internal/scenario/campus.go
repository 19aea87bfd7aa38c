package scenario

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/obs/slo"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/simclock"
	"github.com/dfi-sdn/dfi/internal/switchsim"
)

// Campus scale: a k=8-ish fat tree trimmed to the layers the control plane
// actually exercises — 4 core, 8 aggregation, 32 edge switches — with 800
// hosts per edge switch. Each host binds a four-link identifier chain
// (user↔host↔IP↔MAC↔location), so the full campus carries 25,600 hosts and
// 102,400 live bindings in the Entity Resolution Manager. Quick mode keeps
// the same shape at 1/20 the population for CI smoke runs.
const (
	fullEdges        = 32
	fullAggs         = 8
	fullCores        = 4
	fullHostsPerEdge = 800

	quickEdges        = 8
	quickAggs         = 4
	quickCores        = 2
	quickHostsPerEdge = 160

	bindingsPerHost = 4
)

// campusHost is one bound endpoint.
type campusHost struct {
	name string
	user string
	ip   netpkt.IPv4
	mac  netpkt.MAC
	dpid uint64
	port uint32
}

// campus is the scenario harness's control plane under test: a DFI System
// on the campus obs registry, fronting a fat tree of simulated switches,
// with the identifier space fully bound.
type campus struct {
	cfg Config
	rng *rand.Rand

	reg *obs.Registry
	sys *dfi.System
	erm *entity.Manager
	pm  *policy.Manager
	pcp *pcp.PCP

	switches map[uint64]*switchsim.Switch
	edges    []uint64
	hosts    []campusHost

	tte    *obs.Histogram
	stages *obs.HistogramVec
}

// newCampus builds and fully binds the campus; closing c.sys releases it. The PCP
// runs at native speed on the wall clock: scenario latency distributions
// measure the implementation, and determinism comes from the seeded
// workload rather than a simulated clock. Admission goes through the
// System's PCP directly; no switch connection is served, so the
// controller is unreachable.
func newCampus(cfg Config) (*campus, error) {
	edges, aggs, cores, perEdge := fullEdges, fullAggs, fullCores, fullHostsPerEdge
	if cfg.Quick {
		edges, aggs, cores, perEdge = quickEdges, quickAggs, quickCores, quickHostsPerEdge
	}
	reg := obs.NewRegistry()
	sys, err := dfi.New(
		dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
			return nil, errors.New("campus: no controller")
		}),
		dfi.WithMetrics(reg),
	)
	if err != nil {
		return nil, err
	}
	c := &campus{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		reg:      reg,
		sys:      sys,
		erm:      sys.Entity(),
		pm:       sys.Policy(),
		pcp:      sys.PCP(),
		switches: make(map[uint64]*switchsim.Switch),
	}
	c.tte = c.reg.FindHistogram("dfi_policy_mutation_tte_seconds")
	c.stages = c.reg.FindHistogramVec("dfi_pcp_stage_seconds")

	addSwitch := func(dpid uint64) {
		sw := switchsim.NewSwitch(switchsim.Config{DPID: dpid, Clock: simclock.Real{}})
		c.switches[dpid] = sw
		c.pcp.AttachSwitch(dpid, sw)
	}
	for i := 0; i < cores; i++ {
		addSwitch(uint64(1 + i))
	}
	for i := 0; i < aggs; i++ {
		addSwitch(uint64(100 + i))
	}
	for i := 0; i < edges; i++ {
		dpid := uint64(1000 + i)
		addSwitch(dpid)
		c.edges = append(c.edges, dpid)
	}

	// Bind the population: one user, IP, MAC and edge location per host.
	n := edges * perEdge
	c.hosts = make([]campusHost, 0, n)
	for i := 0; i < n; i++ {
		h := campusHost{
			name: fmt.Sprintf("h%05d", i),
			user: fmt.Sprintf("u%05d", i),
			ip:   netpkt.IPv4{10, byte(1 + i>>16), byte(i >> 8), byte(i)},
			mac:  netpkt.MAC{0x02, 0xca, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)},
			dpid: c.edges[i/perEdge],
			port: uint32(1 + i%perEdge),
		}
		c.erm.BindUserHost(h.user, h.name)
		c.erm.BindHostIP(h.name, h.ip)
		c.erm.BindIPMAC(h.ip, h.mac)
		c.erm.BindMACLocation(h.mac, entity.Location{DPID: h.dpid, Port: h.port})
		c.hosts = append(c.hosts, h)
	}
	return c, nil
}

// entities returns the live binding count.
func (c *campus) entities() int { return len(c.hosts) * bindingsPerHost }

// admit pushes one TCP SYN from src to dst through the PCP on src's edge
// switch and returns the wall-clock admission latency.
func (c *campus) admit(src, dst campusHost, srcPort uint16) time.Duration {
	frame := netpkt.BuildTCP(src.mac, dst.mac, src.ip, dst.ip,
		&netpkt.TCPSegment{SrcPort: srcPort, DstPort: 445, Flags: netpkt.TCPSyn})
	req := &pcp.Request{
		DPID: src.dpid,
		PacketIn: &openflow.PacketIn{
			BufferID: openflow.NoBuffer,
			Reason:   openflow.PacketInReasonNoMatch,
			Match:    &openflow.Match{InPort: openflow.U32(src.port)},
			Data:     frame,
		},
	}
	start := time.Now()
	c.pcp.Process(req)
	return time.Since(start)
}

// pickHost returns a seeded-random host.
func (c *campus) pickHost() campusHost {
	return c.hosts[c.rng.Intn(len(c.hosts))]
}

// newEngine attaches the scenario SLO set to the campus registry: TTE p99
// and admission p99 quantile objectives over one-minute windows. The
// thresholds are the committed campus SLOs every scenario is judged
// against (generous for CI hardware, tight enough to catch an
// asymptotic regression).
func (c *campus) newEngine() *slo.Engine {
	return slo.New(simclock.Real{}, nil,
		slo.Quantile("tte-p99", "dfi_policy_mutation_tte_seconds",
			c.tte, 0.99, 50*time.Millisecond, time.Minute),
		slo.Quantile("admission-p99", `dfi_pcp_stage_seconds{stage="total"}`,
			c.stages.With("total"), 0.99, 10*time.Millisecond, time.Minute),
	)
}

// engineVerdicts maps an engine evaluation onto scenario verdicts.
func engineVerdicts(e *slo.Engine) []Verdict {
	var out []Verdict
	for _, st := range e.Evaluate().Statuses {
		out = append(out, Verdict{
			Name: st.Name, Metric: st.Metric, Quantile: st.Quantile,
			Threshold: st.Threshold, Actual: st.Value, Pass: st.OK,
		})
	}
	return out
}
