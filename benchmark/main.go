// Command benchmark is the repository's one repeatable benchmark: four
// workloads over fixed, seeded operation lists, five passes each from
// fresh state, medians of the passes for every timing and exact
// repetition for every count. README.md has the protocol.
//
//	bash benchmark/run.sh                                  # all four workloads
//	bash benchmark/run.sh --workload serve_mix --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload cold_small --trace 1  # per-layer run, writes out/trace_cold_small.jsonl
//	bash benchmark/run.sh -selfcheck                       # full set twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// refSeconds is the run length the reference op counts are sized for:
// about four seconds of timed work per pass on the two-core reference
// box, twenty per run. BENCHMARK.json's run_seconds equals it.
const refSeconds = 20

// scaleOps resizes a reference count to another run length.
func scaleOps(ref, seconds int) int {
	n := (ref*seconds + refSeconds/2) / refSeconds
	if n < 1 {
		n = 1
	}
	return n
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// prepared is a workload with its op lists generated: how to run one
// untraced pass over them from fresh state, and how to run the traced,
// per-layer run.
type prepared struct {
	pass  func() (*passResult, error)
	trace func(rec *recorder) (layerSet, *passResult, error)
}

// prepare generates a workload's op lists from the seed.
func prepare(name string, seed int64, seconds int, outDir string) (*prepared, error) {
	switch name {
	case "cold_small", "cold_scaled":
		spec := coldSmall
		if name == "cold_scaled" {
			spec = coldScaled
		}
		ops, nWarm, err := coldOps(spec, seed, seconds)
		if err != nil {
			return nil, err
		}
		return &prepared{
			pass:  func() (*passResult, error) { return coldPass(spec, ops, nWarm, false, nil) },
			trace: func(rec *recorder) (layerSet, *passResult, error) { return traceCold(spec, ops, nWarm, rec) },
		}, nil
	case "serve_mix":
		hot, timed, err := serveOps(seed, seconds)
		if err != nil {
			return nil, err
		}
		return &prepared{
			pass: func() (*passResult, error) {
				p, _, err := servePass(hot, timed, depthClient, nil)
				return p, err
			},
			trace: func(rec *recorder) (layerSet, *passResult, error) { return traceServe(hot, timed, rec) },
		}, nil
	case "durable_restart":
		j, n, err := durableOps(seed, seconds)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(outDir, "ledger")
		return &prepared{
			pass:  func() (*passResult, error) { return durablePass(dir, j, n, depthClient, nil) },
			trace: func(rec *recorder) (layerSet, *passResult, error) { return traceDurable(dir, j, n, rec) },
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// measure is an untraced run: five passes, reduced to the end-to-end
// metrics, with a calibration reading between passes. It reports each
// pass as measured, before the slowdown is divided out, on progress.
func measure(name string, seed int64, seconds int, outDir string, progress io.Writer) (*result, error) {
	w, err := prepare(name, seed, seconds, outDir)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	cal.read() // the first reading also warms the kernel's own code and tables
	before := cal.read()
	var ps []*passResult
	for i := 0; i < passes; i++ {
		p, err := w.pass()
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", name, i+1, err)
		}
		after := cal.read()
		p.slowdown = (before + after) / 2 / calibRefS
		before = after
		fmt.Fprintf(progress, "%s pass %d/%d: slowdown %.3f, setup %.3fs, %d ops in %.3fs (%.1f/s), p50 %.3fms, p90 %.3fms, cpu %.0fms\n",
			name, i+1, passes, p.slowdown, p.setupS, len(p.lat), p.wallS, float64(len(p.lat))/p.wallS, percentile(p.lat, 50), percentile(p.lat, 90), p.cpuMs)
		ps = append(ps, p)
		runtime.GC()
	}
	metrics, attempted, failed := endToEnd(ps)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// traced is a traced run: the workload's per-layer metrics, with the
// spans written to outDir/trace_<name>.jsonl.
func traced(name string, seed int64, seconds int, outDir string) (*result, error) {
	w, err := prepare(name, seed, seconds, outDir)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	ls, ref, err := w.trace(rec)
	if err != nil {
		return nil, err
	}
	if err := commonProbes(ls, outDir); err != nil {
		return nil, err
	}
	ls["trace.spans"] = float64(len(rec.spans))
	ls["runtime.peak_rss_mb"] = peakRSSMB()
	if err := rec.writeJSONL(filepath.Join(outDir, "trace_"+name+".jsonl")); err != nil {
		return nil, err
	}
	res := &result{Correct: ref.failed == 0, Attempted: ref.ops, Failed: ref.failed, Metrics: map[string]metric{}}
	for k, v := range ls {
		res.Metrics[k] = metric{Value: v, Unit: perLayerUnits[k]}
	}
	return res, nil
}

// settleGoroutines waits for the goroutine count to fall back to
// baseline (connection readers take a moment to notice a close) and
// returns the final count.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// printTable writes a result's metrics by name with their units.
func printTable(w io.Writer, name string, res *result) {
	fmt.Fprintf(w, "# %s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-32s %16.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of cold_small, cold_scaled, serve_mix, durable_restart (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated op lists")
	seconds := fs.Int("seconds", refSeconds, "run length the op counts are sized for")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
	selfcheck := fs.Bool("selfcheck", false, "run the full set twice and compare against BENCHMARK.json's bounds")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for span files and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *selfcheck {
		return selfCheck(*seed, *seconds, *outDir, stdout, stderr)
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	baseline := runtime.NumGoroutine()
	code := 0
	for _, name := range names {
		var res *result
		var err error
		if *trace == 1 {
			res, err = traced(name, *seed, *seconds, *outDir)
		} else {
			res, err = measure(name, *seed, *seconds, *outDir, stderr)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if end := settleGoroutines(baseline); end > baseline {
			fmt.Fprintf(stderr, "benchmark: %s leaked goroutines: %d at start, %d after teardown\n", name, baseline, end)
			res.Correct = false
		} else if *trace == 1 {
			res.Metrics["runtime.goroutines_end"] = metric{Value: float64(end), Unit: perLayerUnits["runtime.goroutines_end"]}
		}
		printTable(stdout, name, res)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// selfCheck runs the full set twice back to back and holds the pair to
// the bounds the benchmark itself declares: a timing median may differ
// by no more than its bound, a count not at all.
func selfCheck(seed int64, seconds int, outDir string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -selfcheck needs the bounds:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-20s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range workloadNames {
		var runs [2]*result
		for i := range runs {
			if runs[i], err = measure(name, seed, seconds, outDir, stderr); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !runs[i].Correct {
				fmt.Fprintf(stderr, "benchmark: %s run %d: %d of %d ops failed\n", name, i+1, runs[i].Failed, runs[i].Attempted)
				code = 1
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff := spread([]float64{a, b})
			verdict := ""
			switch {
			case a == 0 || b == 0:
				verdict = "  ZERO"
				code = 1
			case countMetrics[m.Name] && a != b:
				verdict = "  COUNT DIFFERS"
				code = 1
			case diff > m.Bound:
				verdict = "  OVER BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-20s %14.6f %14.6f %7.2f%% %7.2f%%%s\n", name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
