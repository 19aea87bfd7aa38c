// Command dfi-bench regenerates the paper's evaluation tables and figures
// (Tables I–II, Figures 4, 5a, 5b) and prints them in the paper's format.
//
// Usage:
//
//	dfi-bench -experiment all            # everything (several minutes)
//	dfi-bench -experiment table1         # one experiment
//	dfi-bench -experiment fig4 -quick    # reduced sweep for a fast look
//	dfi-bench -experiment table1 -native # this implementation's raw speed
//
// Campus-scale scenario telemetry (BENCH_scenarios.json trajectories):
//
//	dfi-bench -scenario all -quick -json                 # every hostile workload, CI scale
//	dfi-bench -scenario revocation-storm -json           # one scenario, full scale
//	dfi-bench -scenario all -quick -json -baseline BENCH_scenarios.json
//	                                                     # fail on SLO regression
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/dfi-sdn/dfi/internal/experiments"
	"github.com/dfi-sdn/dfi/internal/scenario"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1|table2|fig4|fig5a|fig5b|incident|all")
		seed       = flag.Int64("seed", 3, "seed for populations, scripts and fuzzing")
		native     = flag.Bool("native", false, "disable the paper-calibrated latency profile and measure this implementation's raw speed")
		quick      = flag.Bool("quick", false, "reduced sample counts and sweeps")
		outDir     = flag.String("o", "", "also write machine-readable .tsv files to this directory")
		scenName   = flag.String("scenario", "", "run a campus-scale scenario instead of a paper experiment: "+strings.Join(scenario.Names(), "|")+"|all")
		jsonOut    = flag.Bool("json", false, "with -scenario: emit the BENCH_scenarios.json document (to -o dir or the working directory)")
		baseline   = flag.String("baseline", "", "with -scenario: committed BENCH_scenarios.json to gate against; any SLO that passed there must still pass")
	)
	flag.Parse()
	if *scenName != "" {
		if err := runScenarios(*scenName, *seed, *quick, *jsonOut, *outDir, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "dfi-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*experiment, *seed, !*native, *quick, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "dfi-bench:", err)
		os.Exit(1)
	}
}

func run(experiment string, seed int64, calibrated, quick bool, outDir string) error {
	want := func(name string) bool {
		return experiment == "all" || experiment == name
	}
	ran := false

	writeTSV := func(name, tsv string) error {
		if outDir == "" {
			return nil
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, name+".tsv")
		if err := os.WriteFile(path, []byte(tsv), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}

	if want("table1") {
		ran = true
		cfg := experiments.MicrobenchConfig{Calibrated: calibrated, Seed: seed}
		if quick {
			cfg.Flows = 60
			cfg.Trials = 2
			cfg.TrialDuration = time.Second
		}
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		fmt.Println(res.Render())
		if err := writeTSV("table1", res.TSV()); err != nil {
			return err
		}
	}
	if want("table2") {
		ran = true
		cfg := experiments.MicrobenchConfig{Calibrated: calibrated, Seed: seed}
		if quick {
			cfg.Flows = 60
		}
		res, err := experiments.RunTable2(cfg)
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		fmt.Println(res.Render())
		if err := writeTSV("table2", res.TSV()); err != nil {
			return err
		}
	}
	if want("fig4") {
		ran = true
		cfg := experiments.Fig4Config{Calibrated: calibrated, Seed: seed}
		if quick {
			cfg.Rates = []int{0, 200, 400, 600, 800, 1000}
			cfg.Samples = 12
		}
		res, err := experiments.RunFig4(cfg)
		if err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		fmt.Println(res.Render())
		if err := writeTSV("fig4", res.TSV()); err != nil {
			return err
		}
	}
	if want("fig5a") {
		ran = true
		res, err := experiments.RunFig5a(experiments.Fig5aConfig{Seed: seed})
		if err != nil {
			return fmt.Errorf("fig5a: %w", err)
		}
		fmt.Println(res.Render())
		if err := writeTSV("fig5a", res.TSV()); err != nil {
			return err
		}
	}
	if want("incident") {
		ran = true
		res, err := experiments.RunIncidentResponse(experiments.IncidentConfig{Seed: seed})
		if err != nil {
			return fmt.Errorf("incident: %w", err)
		}
		fmt.Println(res.Render())
		if err := writeTSV("incident", res.TSV()); err != nil {
			return err
		}
	}
	if want("fig5b") {
		ran = true
		cfg := experiments.Fig5bConfig{Seed: seed}
		if quick {
			cfg.Hours = []int{0, 3, 6, 9, 12, 15, 18, 21}
		}
		res, err := experiments.RunFig5b(cfg)
		if err != nil {
			return fmt.Errorf("fig5b: %w", err)
		}
		fmt.Println(res.Render())
		if err := writeTSV("fig5b", res.TSV()); err != nil {
			return err
		}
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", experiment,
			strings.Join([]string{"table1", "table2", "fig4", "fig5a", "fig5b", "incident", "all"}, "|"))
	}
	return nil
}
