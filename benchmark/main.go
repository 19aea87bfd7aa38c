// Command benchmark is the repository's benchmark: it runs the real dfid
// binary as a subprocess, plays switch, controller, sensor and admin client
// against it over loopback TCP with inputs generated from a seed, checks
// every output against an oracle of its own, and prints the metrics
// BENCHMARK.json names. See README.md.
//
//	cd benchmark && go run . -workload all -seed 1 -out /tmp/bench
//	cd benchmark && go run . -workload admit-cold -repeat 5
//	cd benchmark && go run . -compare a/repeat.json b/repeat.json
//
// The benchmark driver's form, from the repository root:
//
//	bash benchmark/run.sh --workload admit-hot --seed 3 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"github.com/dfi-sdn/dfi/benchmark/rig"
)

func main() {
	rig.SpinIfChild() // a keeper of CPUs (rig/awake.go) starts this program again as its spinners
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// spareProcs covers the threads of this process that block in the kernel
// outside the Go scheduler's sight: two pacers and the poller.
const spareProcs = 3

func realMain() error {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 20, "length of the timed phases of one run")
		trace   = flag.Int("trace", 0, "1 records boundary spans, runs the layer ledger and reports the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "runs per workload, on consecutive seeds; prints min, median, max and spread")
		out     = flag.String("out", ".bench_out", "directory for the dfid built here, inputs, logs, trace.json and result files")
		cmp     = flag.Bool("compare", false, "compare two repeat.json files given as arguments, then exit")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two repeat.json files")
		}
		return compare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || *repeat < 1 {
		return errors.New("-seconds and -repeat must be at least 1")
	}
	// A pacer asleep in the kernel and the poller waiting in it each hold one
	// of the runtime's processors until its monitor takes it back, some tens
	// of microseconds to milliseconds later; with only as many processors as
	// CPUs, the receivers and the controller stub queue behind them, and the
	// latency this process adds to every request depends on the monitor's
	// mood. Spare processors cost nothing while they idle.
	runtime.GOMAXPROCS(runtime.NumCPU() + spareProcs)
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	binary, err := buildDfid(*out)
	if err != nil {
		return err
	}

	// An interrupted benchmark still stops the dfid it started.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		if r := running.Load(); r != nil {
			r.Close()
		}
		os.Exit(130)
	}()

	var runs []*result
	failed, invalid := false, 0
	for _, w := range todo {
		for i := 0; i < *repeat; i++ {
			o := options{
				Seed: *seed + int64(i), Seconds: *seconds, Trace: *trace != 0, Setups: setupsPerRun, Rounds: roundsPerSetup, Dfid: binary,
				OutDir: filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed+int64(i), *trace)),
			}
			res, err := run(w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if err := writeJSON(filepath.Join(o.OutDir, "result.json"), res); err != nil {
				return err
			}
			res.print(os.Stderr)
			runs = append(runs, res)
			failed = failed || res.Failed > 0
			if !res.Valid {
				// The generator ran too late to have offered the stated load,
				// which a disturbed host does to it. Such a run is no
				// measurement: it ends without a result line, a repeat's summary
				// leaves it out, and the exit code says so.
				fmt.Fprintf(os.Stderr, "  INVALID RUN, not reported: the load generator ran late (mean %.0f us, p50 %.1f us, p95 %.0f us, p99 %.0f us)\n",
					res.Diagnostics["gen_late_mean_us"], res.Diagnostics["gen_late_p50_us"], res.Diagnostics["gen_late_p95_us"], res.Diagnostics["gen_late_p99_us"])
				invalid++
				continue
			}
			line, err := json.Marshal(res.line())
			if err != nil {
				return err
			}
			fmt.Println(string(line))
		}
	}
	if *repeat > 1 {
		file := repeatFile{Host: hostFingerprint(), Runs: runs, Summaries: summarize(runs)}
		printSummaries(os.Stderr, file.Summaries)
		if err := writeJSON(filepath.Join(*out, "repeat.json"), file); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("wrong outputs: see the failed counts above")
	}
	if invalid > 0 {
		return fmt.Errorf("%d of %d runs invalid: the load generator could not keep its schedule on this host", invalid, len(runs))
	}
	return nil
}

// buildDfid builds the system under test, cmd/dfid of the module this one
// sits in, into dir, and returns the binary's absolute path. It is the one
// place dfid is built, for the program and its tests alike; go's cache makes
// every build after the first a check. The build is outside every timing.
func buildDfid(dir string) (string, error) {
	binary, err := filepath.Abs(filepath.Join(dir, "dfid"))
	if err != nil {
		return "", err
	}
	build := exec.Command("go", "build", "-o", binary, "github.com/dfi-sdn/dfi/cmd/dfid")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("building dfid (run from the repository root or the benchmark directory): %w", err)
	}
	return binary, nil
}
