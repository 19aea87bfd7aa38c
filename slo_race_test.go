package dfi_test

import (
	"io"
	"sync"
	"testing"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/bufpipe"
	"github.com/dfi-sdn/dfi/internal/controller"
	"github.com/dfi-sdn/dfi/internal/core/entity"
	"github.com/dfi-sdn/dfi/internal/core/pcp"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/obs/slo"
	"github.com/dfi-sdn/dfi/internal/openflow"
	"github.com/dfi-sdn/dfi/internal/simclock"
)

// TestSLOConcurrentHammer drives the four contending parties at once — the
// SLO engine evaluating (plus its own millisecond ticker), the Prometheus
// endpoint scraping, admission load, and policy churn — against one System.
// Run under -race this is the data-race gate for the SLO engine's snapshot
// reads against the hot path's atomic writes.
func TestSLOConcurrentHammer(t *testing.T) {
	sys, err := dfi.New(
		dfi.WithControllerDialer(func() (io.ReadWriteCloser, error) {
			a, b := bufpipe.New()
			ctl := controller.New(controller.Config{})
			go func() { _ = ctl.Serve(b) }()
			return a, nil
		}),
		dfi.WithSLO(),
		dfi.WithSLOInterval(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sys.Entity().BindIPMAC(netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseMAC("02:00:00:00:00:01"))
	sys.Entity().BindHostIP("h1", netpkt.MustParseIPv4("10.0.0.1"))
	sys.Entity().BindUserHost("alice", "h1")
	sys.PCP().AttachSwitch(1, nopSwitch{})
	if err := sys.Policy().RegisterPDP("hammer", 50); err != nil {
		t.Fatal(err)
	}

	const iters = 400
	var wg sync.WaitGroup

	// Admission load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := &pcp.Request{DPID: 1, PacketIn: &openflow.PacketIn{
			BufferID: openflow.NoBuffer,
			Reason:   openflow.PacketInReasonNoMatch,
			Match:    &openflow.Match{InPort: openflow.U32(3)},
			Data:     benchFrame(),
		}}
		for i := 0; i < iters; i++ {
			sys.PCP().Process(req)
		}
	}()

	// Policy churn: every insert/revoke mutates the TTE histogram the SLO
	// engine is snapshotting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			id, err := sys.Policy().Insert(policy.Rule{
				PDP:    "hammer",
				Action: policy.ActionAllow,
				Src:    policy.EndpointSpec{User: "alice"},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := sys.Policy().Revoke(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// SLO evaluation, racing the ticker Run started.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			sys.SLO().Evaluate()
		}
	}()

	// Prometheus scrapes (quantile lines walk the same buckets).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = sys.Metrics().WritePrometheus(io.Discard)
		}
	}()

	wg.Wait()
	rep := sys.SLO().Evaluate()
	if len(rep.Statuses) != 4 {
		t.Fatalf("after hammer, SLO report = %+v", rep)
	}
}

// TestAdmissionZeroAllocWithSLO extends the hot-path gate: with a span
// store and an SLO engine attached to the admission registry (quantile objective over the
// stage histogram, rate objective over the processed counter) and already
// evaluating, a cache-hit re-admission must still allocate nothing — the
// engine only reads snapshots, never touching the hot path.
func TestAdmissionZeroAllocWithSLO(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	pm := policyBenchManager(t, 1000)
	erm := entity.NewManager()
	erm.BindIPMAC(netpkt.MustParseIPv4("10.0.0.1"), netpkt.MustParseMAC("02:00:00:00:00:01"))
	erm.BindHostIP("h1", netpkt.MustParseIPv4("10.0.0.1"))
	erm.BindUserHost("alice", "h1")
	reg := obs.NewRegistry()
	p := pcp.New(pcp.Config{Entity: erm, Policy: pm, Obs: reg, Spans: obs.NewSpanStore(64, nil)})
	p.AttachSwitch(1, nopSwitch{})

	engine := slo.New(simclock.Real{}, reg,
		slo.Quantile("admission-p99", `dfi_pcp_stage_seconds{stage="total"}`,
			reg.FindHistogramVec("dfi_pcp_stage_seconds").With("total"),
			0.99, time.Second, time.Minute),
		slo.Rate("packetin-rate", "dfi_pcp_processed_total", func() uint64 {
			return reg.FindCounter("dfi_pcp_processed_total").Value()
		}, 1e9, time.Minute),
	)
	defer engine.Close()

	req := hotPathRequest()
	p.Process(req) // prime the decision cache
	engine.Evaluate()
	engine.Evaluate()

	if allocs := testing.AllocsPerRun(200, func() { p.Process(req) }); allocs != 0 {
		t.Fatalf("cache-hit admission with SLO attached allocates %.1f objects/op, want 0", allocs)
	}
	if rep := engine.Evaluate(); len(rep.Statuses) != 2 {
		t.Fatalf("engine lost objectives: %+v", rep)
	}
}
