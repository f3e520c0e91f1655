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
	cfg := bench.DefaultConfig()
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(bench.ExperimentIDs(), ", ")+") or 'all'")
	flag.StringVar(&cfg.Dataset, "dataset", cfg.Dataset, "dataset: paper or award")
	flag.Float64Var(&cfg.Scale, "scale", cfg.Scale, "dataset scale (1.0 = the paper's Table 2/3 sizes)")
	flag.IntVar(&cfg.Reps, "reps", cfg.Reps, "repetitions per cell (the paper averages 1000)")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.IntVar(&cfg.Redundancy, "redundancy", cfg.Redundancy, "answers per task")
	flag.Float64Var(&cfg.WorkerQ, "workerq", cfg.WorkerQ, "mean simulated worker accuracy")
	flag.IntVar(&cfg.Samples, "samples", cfg.Samples, "MinCut sampling count")

	flag.Uint64Var(&cfg.FaultSeed, "fault-seed", 1, "chaos engine seed (same seed replays identical faults)")
	flag.Float64Var(&cfg.FaultDrop, "fault-drop", 0, "fraction of crowd answers dropped (chaos experiment sweeps its own grid unless set)")
	flag.Float64Var(&cfg.FaultStraggler, "fault-straggler", 0, "fraction of answers delayed past the round deadline")
	flag.Float64Var(&cfg.FaultDup, "fault-dup", 0, "fraction of answers delivered twice")
	flag.Float64Var(&cfg.FaultCorrupt, "fault-corrupt", 0, "fraction of answers replaced by random verdicts")
	flag.StringVar(&cfg.FaultBlackout, "fault-blackout", "", "market outage as market:from:until in virtual ticks (empty market = all)")
	flag.Int64Var(&cfg.TaskDeadline, "deadline", 0, "per-HIT deadline in virtual ticks (0 = executor default)")
	flag.IntVar(&cfg.MaxRetries, "retries", 0, "reissue waves per round (0 = executor default, negative disables)")
	flag.Float64Var(&cfg.HedgeFrac, "hedge", 0, "slowest fraction of a round hedged early (0 = executor default, negative disables)")

	var (
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
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbench: trace: %v\n", err)
			os.Exit(1)
		}
		jw := obs.NewJSONLWriter(f)
		cfg.Observer = jw
		defer func() {
			if err := jw.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "cdbench: trace: %v\n", err)
			}
			f.Close()
		}()
	}

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
