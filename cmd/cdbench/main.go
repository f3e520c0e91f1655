// Command cdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	cdbench -exp fig8 -dataset paper -scale 0.12 -reps 3
//	cdbench -exp all
//
// Each experiment prints one or more aligned text tables; see
// EXPERIMENTS.md for the mapping to the paper and the expected shapes.
// It writes no file unless -trace, -cpuprofile or -memprofile names
// one. The crowd is simulated and seeded, so the counts are exact:
// internal/bench's tests assert on the same tables, and that is the
// only fidelity guard. Timings are measured by benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cdb/internal/bench"
	"cdb/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id ("+strings.Join(bench.ExperimentIDs(), ", ")+") or 'all'")
		dataset = flag.String("dataset", "paper", "dataset: paper or award")
		scale   = flag.Float64("scale", 0.12, "dataset scale (1.0 = the paper's Table 2/3 sizes)")
		reps    = flag.Int("reps", 3, "repetitions per cell (the paper averages 1000)")
		seed    = flag.Uint64("seed", 1, "random seed")
		red     = flag.Int("redundancy", 5, "answers per task")
		workerQ = flag.Float64("workerq", 0.8, "mean simulated worker accuracy")
		samples = flag.Int("samples", 20, "MinCut sampling count")

		faultSeed      = flag.Uint64("fault-seed", 1, "chaos engine seed (same seed replays identical faults)")
		faultDrop      = flag.Float64("fault-drop", 0, "fraction of crowd answers dropped (chaos experiment sweeps its own grid unless set)")
		faultStraggler = flag.Float64("fault-straggler", 0, "fraction of answers delayed past the round deadline")
		faultDup       = flag.Float64("fault-dup", 0, "fraction of answers delivered twice")
		faultCorrupt   = flag.Float64("fault-corrupt", 0, "fraction of answers replaced by random verdicts")
		faultBlackout  = flag.String("fault-blackout", "", "market outage as market:from:until in virtual ticks (empty market = all)")
		deadline       = flag.Int64("deadline", 0, "per-HIT deadline in virtual ticks (0 = executor default)")
		retries        = flag.Int("retries", 0, "reissue waves per round (0 = executor default, negative disables)")
		hedge          = flag.Float64("hedge", 0, "slowest fraction of a round hedged early (0 = executor default, negative disables)")

		traceOut    = flag.String("trace", "", "write query-lifecycle spans as JSONL to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (\":0\" picks a port)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbench: metrics: %v\n", err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "cdbench: metrics on http://%s/metrics\n", bound)
	}
	if *cpuProfile != "" || *memProfile != "" {
		stop, err := obs.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbench: profiling: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "cdbench: profiling: %v\n", err)
			}
		}()
	}
	var observer obs.Observer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbench: trace: %v\n", err)
			os.Exit(1)
		}
		jw := obs.NewJSONLWriter(f)
		observer = jw
		defer func() {
			if err := jw.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "cdbench: trace: %v\n", err)
			}
			f.Close()
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.Dataset = *dataset
	cfg.Scale = *scale
	cfg.Reps = *reps
	cfg.Seed = *seed
	cfg.Redundancy = *red
	cfg.WorkerQ = *workerQ
	cfg.Samples = *samples
	cfg.Observer = observer
	cfg.FaultSeed = *faultSeed
	cfg.FaultDrop = *faultDrop
	cfg.FaultStraggler = *faultStraggler
	cfg.FaultDup = *faultDup
	cfg.FaultCorrupt = *faultCorrupt
	cfg.FaultBlackout = *faultBlackout
	cfg.TaskDeadline = *deadline
	cfg.MaxRetries = *retries
	cfg.HedgeFrac = *hedge

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	}
	for _, id := range ids {
		runner, ok := bench.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "cdbench: unknown experiment %q; known: %v\n", id, bench.ExperimentIDs())
			os.Exit(2)
		}
		start := time.Now()
		tables, err := runner(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Render(os.Stdout)
		}
		fmt.Printf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
