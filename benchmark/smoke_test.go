package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/dfi-sdn/dfi/benchmark/rig"
)

// TestWorkloadsSmoke runs every workload once against a real dfid, briefly
// and side by side: nothing here is a measurement, only that every phase
// runs, every output agrees with the oracle and every metric is reported.
// One workload also takes the traced path. The seeds differ from the one
// the benchmark was written against.
// TestMain lets the test binary serve as the rig's CPU spinners.
func TestMain(m *testing.M) {
	rig.SpinIfChild()
	os.Exit(m.Run())
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dfid subprocesses")
	}
	dir := t.TempDir()
	dfid, err := buildDfid(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("group", func(t *testing.T) {
		for i, w := range workloads {
			w, trace := w, w.Name == "admit-hot"
			seed := int64(2 + i)
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				res, err := run(w, options{Seed: seed, Seconds: 3, Trace: trace, Setups: 1, Rounds: 2, Dfid: dfid,
					OutDir: filepath.Join(dir, w.Name)})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 1000 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				line := res.line()
				if len(line.Metrics) != len(reported(trace)) {
					t.Errorf("%d metrics on the result line, want %d", len(line.Metrics), len(reported(trace)))
				}
				if _, err := json.Marshal(line); err != nil {
					t.Errorf("result line: %v", err)
				}
				if !trace {
					for name, m := range line.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v: an end-to-end metric is never 0", name, m.Value)
						}
					}
					return
				}
				// The workload must stress the layer it was built for.
				if hit := res.Metrics["pcp.cache_hit_ratio"]; hit < 0.95 {
					t.Errorf("admit-hot: decision cache hit ratio %v, want at least 0.95", hit)
				}
				for _, name := range []string{"pcp.process_miss_ns", "proxy.forward_ns", "policytext.setsource_1line_ns", "hop.sw_to_flowmod_us", "ledger.op_attributed_ratio"} {
					if res.Metrics[name] <= 0 {
						t.Errorf("%s = %v, want a measurement", name, res.Metrics[name])
					}
				}
				// An admission never has the controller answer the switch: the hop
				// is left out of the run's metrics, not reported as 0.
				if v, ok := res.Metrics["hop.ctl_reply_to_sw_us"]; ok || line.Metrics["hop.ctl_reply_to_sw_us"].Value != notExercised {
					t.Errorf("hop.ctl_reply_to_sw_us: measured %v (%t), on the line %v; want it absent and %v",
						v, ok, line.Metrics["hop.ctl_reply_to_sw_us"].Value, notExercised)
				}
				raw, err := os.ReadFile(filepath.Join(dir, w.Name, "trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var tr struct{ Spans []rig.Span }
				if err := json.Unmarshal(raw, &tr); err != nil || len(tr.Spans) == 0 {
					t.Errorf("trace.json: %d spans, err %v", len(tr.Spans), err)
				}
			})
		}
	})
}
