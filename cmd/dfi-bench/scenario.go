package main

import (
	"fmt"

	"github.com/dfi-sdn/dfi/internal/scenario"
)

// runScenarios runs the named scenario (or "all") and prints the verdict
// table; any violated SLO fails the run.
func runScenarios(name string, seed int64, quick bool) error {
	results, err := scenario.RunByName(name, scenario.Config{Seed: seed, Quick: quick})
	if err != nil {
		return err
	}
	renderScenarios(results)
	failed := 0
	for _, res := range results {
		if !res.Passed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) violated their SLOs", failed)
	}
	return nil
}

// renderScenarios prints the human-readable verdict table.
func renderScenarios(results []*scenario.Result) {
	for _, res := range results {
		status := "PASS"
		if !res.Passed() {
			status = "FAIL"
		}
		fmt.Printf("=== %-18s %s  (%.1fs, %d entities, %d switches)\n",
			res.Scenario, status, res.DurationSec, res.Entities, res.Switches)
		for _, m := range res.Metrics {
			switch {
			case m.Rate > 0:
				fmt.Printf("    %-24s %d events, %.1f/s\n", m.Name, m.Count, m.Rate)
			case m.P99 > 0:
				fmt.Printf("    %-24s n=%-7d p50=%-10s p95=%-10s p99=%-10s p99.9=%s\n",
					m.Name, m.Count, secs(m.P50), secs(m.P95), secs(m.P99), secs(m.P999))
			case m.Mean > 0:
				fmt.Printf("    %-24s n=%-7d mean=%s\n", m.Name, m.Count, secs(m.Mean))
			default:
				fmt.Printf("    %-24s %d %s\n", m.Name, m.Count, m.Unit)
			}
		}
		for _, v := range res.SLOs {
			mark := "ok"
			if !v.Pass {
				mark = "VIOLATED"
			}
			fmt.Printf("    slo %-20s actual=%-12g threshold=%-12g %s\n",
				v.Name, v.Actual, v.Threshold, mark)
		}
	}
}

// secs renders a quantile in engineering units.
func secs(v float64) string {
	switch {
	case v >= 1:
		return fmt.Sprintf("%.2fs", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.0fµs", v*1e6)
	}
}
