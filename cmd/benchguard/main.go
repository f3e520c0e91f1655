// Command benchguard gates benchmark regressions in CI.
//
// It compares a freshly measured BENCH_cost.json against the committed
// baseline and exits non-zero if any matched ns/op metric regressed by
// more than the allowed fraction (default 25%). Metrics are matched by
// identity — round benchmarks by edge count, join benchmarks by
// (input, n) — so adding or removing scales never trips the guard;
// only a measured slowdown on a shared metric does.
//
// With -trans-baseline and -trans-current it additionally guards the
// transitive-inference experiment (BENCH_trans.json): the build fails
// when the HITs saved by inference drop more than the allowed fraction
// below the committed baseline — the direction is inverted relative to
// ns/op, fewer savings is the regression.
//
// With -shard-baseline and -shard-current it guards the horizontal
// scale-out experiment (BENCH_shard.json): the build fails when the
// 2-shard aggregate QPS scaling drops below the hard 1.6x floor (or
// more than the allowed fraction below the committed baseline), when
// no cross-shard cache hits are observed, or when the off-owner probe
// has to issue fresh crowd work — replication failing to cover it.
//
// With -plan-baseline and -plan-current it guards the greedy-planner
// experiment (BENCH_plan.json): the build fails when the HITs saved by
// greedy ordering drop more than the allowed fraction below the
// committed baseline, when planning p95 exceeds 1ms, or when EXPLAIN
// is observed issuing any crowd assignment.
//
// Usage:
//
//	go run ./cmd/cdbench -costbench -costbenchout BENCH_current.json
//	go run ./cmd/benchguard -baseline BENCH_cost.json -current BENCH_current.json
//	go run ./cmd/cdbench -exp trans -trans-out BENCH_trans_current.json
//	go run ./cmd/benchguard -trans-baseline BENCH_trans.json -trans-current BENCH_trans_current.json
//	go run ./cmd/cdbench -exp shard -shard-out BENCH_shard_current.json
//	go run ./cmd/benchguard -shard-baseline BENCH_shard.json -shard-current BENCH_shard_current.json
//	go run ./cmd/cdbench -exp plan -plan-out BENCH_plan_current.json
//	go run ./cmd/benchguard -plan-baseline BENCH_plan.json -plan-current BENCH_plan_current.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cdb/internal/bench"
)

// checkTrans guards the transitive-inference savings: the current
// HITsSaved must not fall more than the allowed fraction below the
// committed baseline, and inference must never cost more HITs than the
// non-inferring run. Exits the process with the guard's verdict.
func checkTrans(basePath, curPath string, allowed float64) {
	base, err := loadTrans(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	cur, err := loadTrans(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if base.HITsSaved <= 0 {
		fmt.Fprintf(os.Stderr, "benchguard: baseline %s reports no HITs saved (%d); nothing to guard\n",
			basePath, base.HITsSaved)
		os.Exit(2)
	}
	floor := float64(base.HITsSaved) * (1 - allowed)
	fmt.Printf("%-34s baseline %6d HITs saved  current %6d  floor %8.1f\n",
		"trans/hits-saved", base.HITsSaved, cur.HITsSaved, floor)
	if cur.HITsSaved <= 0 {
		fmt.Fprintf(os.Stderr, "benchguard: transitive inference saves nothing (%d HITs); REGRESSED\n", cur.HITsSaved)
		os.Exit(1)
	}
	if float64(cur.HITsSaved) < floor {
		fmt.Fprintf(os.Stderr, "benchguard: HITs saved dropped %.1f%% below baseline (allowed %.0f%%); REGRESSED\n",
			(1-float64(cur.HITsSaved)/float64(base.HITsSaved))*100, allowed*100)
		os.Exit(1)
	}
	fmt.Printf("benchguard: inference savings within %.0f%% of baseline\n", allowed*100)
}

// planP95FloorMicros is the absolute planning-latency bar: the greedy
// planner must stay under 1ms at p95 regardless of the baseline.
const planP95FloorMicros = 1000

// checkPlan guards the greedy-planner report. Exits with the verdict.
func checkPlan(basePath, curPath string, allowed float64) {
	base, err := loadPlan(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	cur, err := loadPlan(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if base.HITsSaved <= 0 {
		fmt.Fprintf(os.Stderr, "benchguard: baseline %s reports no HITs saved (%d); nothing to guard\n",
			basePath, base.HITsSaved)
		os.Exit(2)
	}
	floor := float64(base.HITsSaved) * (1 - allowed)
	fmt.Printf("%-34s baseline %6d HITs saved  current %6d  floor %8.1f\n",
		"plan/hits-saved", base.HITsSaved, cur.HITsSaved, floor)
	fmt.Printf("%-34s current %6dµs (floor %dµs)\n", "plan/p95-planning", cur.PlanP95Micros, planP95FloorMicros)
	fmt.Printf("%-34s current %6d (want 0)\n", "plan/explain-assignments", cur.ExplainAssignments)
	failed := false
	if cur.HITsSaved <= 0 {
		fmt.Fprintf(os.Stderr, "benchguard: greedy planning saves nothing (%d HITs); REGRESSED\n", cur.HITsSaved)
		failed = true
	} else if float64(cur.HITsSaved) < floor {
		fmt.Fprintf(os.Stderr, "benchguard: HITs saved dropped %.1f%% below baseline (allowed %.0f%%); REGRESSED\n",
			(1-float64(cur.HITsSaved)/float64(base.HITsSaved))*100, allowed*100)
		failed = true
	}
	if cur.PlanP95Micros > planP95FloorMicros {
		fmt.Fprintf(os.Stderr, "benchguard: planning p95 %dµs exceeds %dµs; REGRESSED\n",
			cur.PlanP95Micros, planP95FloorMicros)
		failed = true
	}
	if cur.ExplainAssignments != 0 {
		fmt.Fprintf(os.Stderr, "benchguard: EXPLAIN issued %d crowd assignments (want 0); REGRESSED\n",
			cur.ExplainAssignments)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchguard: greedy planning saves %d HITs (%d early exits) within %.0f%% of baseline\n",
		cur.HITsSaved, cur.EarlyExitQueries, allowed*100)
}

func loadPlan(path string) (*bench.PlanBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.PlanBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// shardScalingFloor is the acceptance bar for 2-shard scaling: a fleet
// that cannot beat 1.6x aggregate QPS over one node is not scaling.
const shardScalingFloor = 1.6

// checkShard guards the scale-out report. Exits with the verdict.
func checkShard(basePath, curPath string, allowed float64) {
	base, err := loadShard(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	cur, err := loadShard(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	floor := shardScalingFloor
	if f := base.Scaling2x * (1 - allowed); f > floor {
		floor = f
	}
	fmt.Printf("%-34s baseline %6.2fx  current %6.2fx  floor %6.2fx\n",
		"shard/scaling-2x", base.Scaling2x, cur.Scaling2x, floor)
	fmt.Printf("%-34s baseline %6d   current %6d\n",
		"shard/cross-shard-hits", base.CrossShardHits, cur.CrossShardHits)
	failed := false
	if cur.Scaling2x < floor {
		fmt.Fprintf(os.Stderr, "benchguard: 2-shard scaling %.2fx below floor %.2fx; REGRESSED\n", cur.Scaling2x, floor)
		failed = true
	}
	if cur.CrossShardHits <= 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no cross-shard cache hits; replication is not paying for itself; REGRESSED")
		failed = true
	}
	for _, fl := range cur.Fleets {
		if fl.ProbeAssignments != 0 {
			fmt.Fprintf(os.Stderr, "benchguard: off-owner probe at %d shards issued %d fresh assignments (want 0: replicated verdicts must cover it); REGRESSED\n",
				fl.Shards, fl.ProbeAssignments)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchguard: scale-out holds %.2fx at 2 shards with %d cross-shard hits\n", cur.Scaling2x, cur.CrossShardHits)
}

func loadShard(path string) (*bench.ShardBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.ShardBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func loadTrans(path string) (*bench.TransBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.TransBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func load(path string) (*bench.CostBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.CostBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// check compares one matched metric and reports whether it passed.
func check(w *int, label string, base, cur, allowed float64) bool {
	ratio := cur / base
	status := "ok"
	pass := true
	if ratio > 1+allowed {
		status = "REGRESSED"
		pass = false
	}
	fmt.Printf("%-34s baseline %12.0f ns  current %12.0f ns  %+6.1f%%  %s\n",
		label, base, cur, (ratio-1)*100, status)
	if !pass {
		*w++
	}
	return pass
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_cost.json", "committed baseline report")
		currentPath  = flag.String("current", "BENCH_cost.json", "freshly measured report")
		allowed      = flag.Float64("allowed", 0.25, "allowed ns/op regression fraction before failing")

		transBasePath = flag.String("trans-baseline", "", "committed BENCH_trans.json baseline (with -trans-current, runs the inference-savings guard instead)")
		transCurPath  = flag.String("trans-current", "", "freshly measured trans report")

		shardBasePath = flag.String("shard-baseline", "", "committed BENCH_shard.json baseline (with -shard-current, runs the scale-out guard instead)")
		shardCurPath  = flag.String("shard-current", "", "freshly measured shard report")

		planBasePath = flag.String("plan-baseline", "", "committed BENCH_plan.json baseline (with -plan-current, runs the planner guard instead)")
		planCurPath  = flag.String("plan-current", "", "freshly measured plan report")
	)
	flag.Parse()

	if *transBasePath != "" || *transCurPath != "" {
		if *transBasePath == "" || *transCurPath == "" {
			fmt.Fprintln(os.Stderr, "benchguard: -trans-baseline and -trans-current must be given together")
			os.Exit(2)
		}
		checkTrans(*transBasePath, *transCurPath, *allowed)
		return
	}
	if *shardBasePath != "" || *shardCurPath != "" {
		if *shardBasePath == "" || *shardCurPath == "" {
			fmt.Fprintln(os.Stderr, "benchguard: -shard-baseline and -shard-current must be given together")
			os.Exit(2)
		}
		checkShard(*shardBasePath, *shardCurPath, *allowed)
		return
	}
	if *planBasePath != "" || *planCurPath != "" {
		if *planBasePath == "" || *planCurPath == "" {
			fmt.Fprintln(os.Stderr, "benchguard: -plan-baseline and -plan-current must be given together")
			os.Exit(2)
		}
		checkPlan(*planBasePath, *planCurPath, *allowed)
		return
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if base.GoMaxProcs != cur.GoMaxProcs {
		fmt.Printf("note: GOMAXPROCS differs (baseline %d, current %d); comparison is advisory\n",
			base.GoMaxProcs, cur.GoMaxProcs)
	}

	baseRounds := make(map[int]bench.RoundBenchResult, len(base.Rounds))
	for _, r := range base.Rounds {
		baseRounds[r.Edges] = r
	}
	type joinKey struct {
		input string
		n     int
	}
	baseJoins := make(map[joinKey]bench.JoinBenchResult, len(base.Joins))
	for _, j := range base.Joins {
		baseJoins[joinKey{j.Input, j.N}] = j
	}

	regressions, matched := 0, 0
	for _, r := range cur.Rounds {
		b, ok := baseRounds[r.Edges]
		if !ok {
			fmt.Printf("%-34s no baseline, skipped\n", fmt.Sprintf("rounds/%d-edges", r.Edges))
			continue
		}
		matched++
		check(&regressions, fmt.Sprintf("rounds/%d-edges", r.Edges),
			b.IncrementalNsRound, r.IncrementalNsRound, *allowed)
	}
	for _, j := range cur.Joins {
		name := fmt.Sprintf("join/%s/n=%d", j.Input, j.N)
		b, ok := baseJoins[joinKey{j.Input, j.N}]
		if !ok {
			fmt.Printf("%-34s no baseline, skipped\n", name)
			continue
		}
		matched++
		check(&regressions, name, b.NsJoin, j.NsJoin, *allowed)
	}

	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no metrics matched between baseline and current")
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d of %d metrics regressed beyond %.0f%%\n",
			regressions, matched, *allowed*100)
		os.Exit(1)
	}
	fmt.Printf("benchguard: all %d metrics within %.0f%% of baseline\n", matched, *allowed*100)
}
