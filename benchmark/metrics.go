package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestBenchmarkJSONMatchesTables holds the two
// together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of dfid would see, reported by every
// workload from an untraced run. What "op" means is the workload's own
// primary operation (see workloads in workload.go and the README).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_us", "us", "lower"},
	{"sat_ops_per_s", "1/s", "higher"},
	{"sat_mb_per_s", "MB/s", "higher"},
	{"revoke_tte_mean_ms", "ms", "lower"},
	{"quarantine_tte_p50_ms", "ms", "lower"},
	{"cpu_ms_per_kop", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported from a traced run:
// the emulators' boundary spans (hop.*), the in-process layer ledger
// (<layer>.*_ns, allocs), dfid's own counters scraped around the fixed-rate
// phase, and the end-to-end candidates the repeatability audit found too
// noisy to bound (diag.*).
var perLayer = []metricDef{
	{"hop.sw_to_ctl_us", "us", "lower"},
	{"hop.sw_to_flowmod_us", "us", "lower"},
	{"hop.ctl_reply_to_sw_us", "us", "lower"},
	{"hop.api_to_first_sw_ms", "ms", "lower"},
	{"hop.first_to_last_sw_ms", "ms", "lower"},
	{"hop.api_return_ms", "ms", "lower"},

	{"openflow.decode_packetin_ns", "ns", "lower"},
	{"openflow.encode_flowmod_ns", "ns", "lower"},
	{"openflow.frame_shift_ns", "ns", "lower"},
	{"openflow.allocs_per_frame", "count", "lower"},
	{"netpkt.extract_flowkey_ns", "ns", "lower"},
	{"entity.resolve_both_ns", "ns", "lower"},
	{"entity.bind_ns", "ns", "lower"},
	{"entity.bindings", "count", "lower"},
	{"policy.query_ns", "ns", "lower"},
	{"policy.insert_revoke_ns", "ns", "lower"},
	{"policy.snapshot_rebuilds", "count", "lower"},
	{"pcp.process_miss_ns", "ns", "lower"},
	{"pcp.process_hit_ns", "ns", "lower"},
	{"pcp.allocs_miss", "count", "lower"},
	{"pcp.allocs_hit", "count", "lower"},
	{"pcp.revoke_flush_8sw_ns", "ns", "lower"},
	{"pcp.cache_hit_ratio", "ratio", "higher"},
	{"pcp.cache_stale", "count", "lower"},
	{"pcp.queue_drops", "count", "lower"},
	{"pcp.stage_binding_p50_us", "us", "lower"},
	{"pcp.stage_policy_p50_us", "us", "lower"},
	{"pcp.stage_total_p50_us", "us", "lower"},
	{"proxy.forward_ns", "ns", "lower"},
	{"proxy.session_setup_us", "us", "lower"},
	{"proxy.rss_per_idle_conn_kb", "kB", "lower"},
	{"proxy.goroutines", "count", "lower"},
	{"proxy.forward_p50_us", "us", "lower"},
	{"proxy.overload_drops", "count", "lower"},
	{"proxy.connections", "count", "lower"},
	{"policytext.parse_ns", "ns", "lower"},
	{"policytext.lower_ns", "ns", "lower"},
	{"policytext.verify_ns", "ns", "lower"},
	{"policytext.setsource_1line_ns", "ns", "lower"},
	{"bus.publish_to_bound_us", "us", "lower"},
	{"bus.dropped", "count", "lower"},
	{"obs.metrics_scrape_ms", "ms", "lower"},
	{"obs.spans_committed", "count", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.gen_late_p99_us", "us", "lower"},
	{"bench.mutation_ops_per_s", "1/s", "higher"},

	{"ledger.op_attributed_ratio", "ratio", "higher"},
	{"ledger.op_residual_us", "us", "lower"},
	{"ledger.op_unloaded_p50_us", "us", "lower"},
	{"ledger.revoke_attributed_ratio", "ratio", "higher"},
	{"ledger.revoke_residual_us", "us", "lower"},

	{"diag.op_p99_us", "us", "lower"},
	{"diag.revoke_tte_p50_ms", "ms", "lower"},
	{"diag.revoke_tte_p90_ms", "ms", "lower"},
}

// quantile returns the q-quantile of samples by the nearest-rank rule, or 0
// for an empty set. It sorts samples in place.
func quantile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	return float64(samples[min(max(rank, 0), len(samples)-1)])
}

// medianF is the median of a small set of floats, 0 when empty.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
