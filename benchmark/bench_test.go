package main

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/sim"
	"cdb/internal/stats"
)

func stmts(ops []op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.stmt
	}
	return out
}

func total(q quota) int {
	n := 0
	for _, v := range q {
		n += v
	}
	return n
}

// whereOf strips the projection, leaving what decides the crowd work.
func whereOf(stmt string) string { return stmt[strings.Index(stmt, " FROM "):] }

func TestGeneratorDeterministicAndDistinct(t *testing.T) {
	hotA, timedA, err := serveOps(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	hotB, timedB, err := serveOps(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stmts(hotA), stmts(hotB)) || !reflect.DeepEqual(stmts(timedA), stmts(timedB)) {
		t.Fatal("the same seed generated different lists")
	}
	_, timedC, err := serveOps(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(stmts(timedA), stmts(timedC)) {
		t.Fatal("different seeds generated the same list")
	}

	hot := map[string]bool{}
	for _, o := range hotA {
		if hot[o.stmt] {
			t.Fatalf("hot statement repeated within the hot set: %s", o.stmt)
		}
		hot[o.stmt] = true
	}
	if len(hot) != total(hotSet) {
		t.Fatalf("hot set has %d statements, want %d", len(hot), total(hotSet))
	}
	novel := map[string]bool{}
	repeats := map[string]int{}
	for _, o := range timedA {
		if _, err := cql.Parse(o.stmt); err != nil {
			t.Fatalf("generated statement does not parse: %v", err)
		}
		if o.hot != hot[o.stmt] {
			t.Fatalf("hot flag of %q disagrees with the hot set", o.stmt)
		}
		if o.hot {
			repeats[o.stmt]++
			continue
		}
		if novel[o.stmt] {
			t.Fatalf("novel statement repeated within a pass: %s", o.stmt)
		}
		novel[o.stmt] = true
	}
	if len(novel) != total(serveNovel.scaled(2)) {
		t.Fatalf("%d novel statements, want %d", len(novel), total(serveNovel.scaled(2)))
	}
	for s, n := range repeats {
		if n != scaleOps(hotRepeats, 2) {
			t.Fatalf("hot statement %q repeats %d times, want %d", s, n, scaleOps(hotRepeats, 2))
		}
	}

	j, n, err := durableOps(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range append(append([]op(nil), j...), n...) {
		if seen[o.stmt] {
			t.Fatalf("durable_restart statement repeated across J and N: %s", o.stmt)
		}
		seen[o.stmt] = true
	}
}

// Cold lists hold the same crowd work in the same order under every
// seed; the seed only moves the projections.
func TestColdListsCanonical(t *testing.T) {
	a, warmA, err := coldOps(coldSmall, 1, refSeconds)
	if err != nil {
		t.Fatal(err)
	}
	b, warmB, err := coldOps(coldSmall, 2, refSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if warmA != warmB || len(a) != len(b) {
		t.Fatalf("list sizes differ between seeds: %d/%d vs %d/%d", warmA, len(a), warmB, len(b))
	}
	same := 0
	for i := range a {
		if whereOf(a[i].stmt) != whereOf(b[i].stmt) {
			t.Fatalf("op %d asks different crowd work under another seed:\n%s\n%s", i, a[i].stmt, b[i].stmt)
		}
		if a[i].stmt == b[i].stmt {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("the seed changed nothing")
	}
	if got := len(a) - warmA; !p90Supported(got) {
		t.Fatalf("cold_small times %d ops a pass, too few for a p90", got)
	}
}

// Every constant, and every pair of constants, is used equally often
// by a draw whose quota is a multiple of their number.
func TestComboCoversEvenly(t *testing.T) {
	g, err := newGenerator(3, genData("paper", 0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, canonical := range []bool{true, false} {
		ops, err := g.draw("paper", quota{"2J1S": 16, "3J1S": 12, "3J2S": 96}, canonical)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, o := range ops {
			counts[o.shape+whereOf(o.stmt)]++
		}
		perShape := map[string][]int{}
		for k, n := range counts {
			shape := k[:strings.Index(k, " ")]
			perShape[shape] = append(perShape[shape], n)
		}
		for shape, want := range map[string][2]int{"2J1S": {8, 2}, "3J1S": {6, 2}, "3J2S": {48, 2}} {
			got := perShape[shape]
			if len(got) != want[0] {
				t.Fatalf("canonical=%v: %s used %d constant combinations, want %d", canonical, shape, len(got), want[0])
			}
			for _, n := range got {
				if n != want[1] {
					t.Fatalf("canonical=%v: %s combination used %d times, want %d", canonical, shape, n, want[1])
				}
			}
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median of odd count = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of even count = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median of nothing = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 50); got != 50 {
		t.Fatalf("p50 of 1..100 = %v", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Fatalf("p90 of 1..100 = %v", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Fatalf("p100 of 1..100 = %v", got)
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its argument in place")
	}
	if p90Supported(99) || !p90Supported(100) {
		t.Fatal("a p90 needs at least 100 samples: ten beyond it")
	}
	if got := spread([]float64{9, 10, 11}); got != 0.2 {
		t.Fatalf("spread = %v", got)
	}
}

// A machine that runs everything twice as slowly must read the same.
func TestTimingsReportedAtReferenceSpeed(t *testing.T) {
	pass := func(slow float64) *passResult {
		return &passResult{
			slowdown: slow, setupS: 0.5 * slow, wallS: 2 * slow, cpuMs: 3000 * slow,
			lat: []float64{1 * slow, 2 * slow, 3 * slow, 4 * slow}, allocMB: 8, liveMB: 5,
			ops: 4, tasks: 40, hits: 20, rounds: 12, f1Sum: 3, digests: []uint64{1, 2, 3, 4},
		}
	}
	want, _, _ := endToEnd([]*passResult{pass(1)})
	got, _, failed := endToEnd([]*passResult{pass(2), pass(1.5), pass(0.9)})
	if failed != 0 {
		t.Fatalf("%d ops failed", failed)
	}
	for name, w := range want {
		if g := got[name].Value; math.Abs(g-w.Value) > 1e-9*w.Value {
			t.Fatalf("%s = %v on the slow machine, %v on the reference", name, g, w.Value)
		}
	}
	if want["throughput_qps"].Value != 2 || want["query_p50_ms"].Value != 2 || want["cpu_ms_per_query"].Value != 750 {
		t.Fatalf("reference reading %v", want)
	}
	if p := newPass(); p.slowdown != 1 {
		t.Fatalf("an uncalibrated pass has slowdown %v, want its timings as measured", p.slowdown)
	}
}

func TestCalibratorRepeatsItsWork(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if len(c.lanes) != runtime.GOMAXPROCS(0) {
		t.Fatalf("%d lanes on %d processors", len(c.lanes), runtime.GOMAXPROCS(0))
	}
	if s := c.read(); !(s > 0) {
		t.Fatalf("reading %v", s)
	}
	sink := c.lanes[0].sink
	c.read()
	if c.lanes[0].sink != sink {
		t.Fatal("the kernel computed something else the second time")
	}
}

// recording remembers the batches a strategy returned.
type recording struct {
	cost.Strategy
	batches [][]int
}

func (r *recording) NextRound(g *graph.Graph) []int {
	b := r.Strategy.NextRound(g)
	r.batches = append(r.batches, append([]int(nil), b...))
	return b
}

// The timing decorator must not change what the strategy selects.
func TestTimedStrategyReturnsTheSameBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		d := dataset.GenPaper(dataset.Config{Seed: rng.Uint64(), Scale: 0.04 + 0.02*rng.Float64()})
		label := dataset.QueryLabels()[rng.Intn(5)]
		st, err := cql.Parse(dataset.Queries("paper")[label])
		if err != nil {
			t.Fatal(err)
		}
		poolSeed := rng.Uint64()
		run := func(s cost.Strategy) [][]int {
			p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.PlanConfig{Sim: sim.Gram2Jaccard, Epsilon: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			rec := &recording{Strategy: s}
			if _, err := exec.Run(context.Background(), p, exec.Options{
				Strategy: rec,
				Pool:     crowd.NewPool(50, 0.8, 0.1, stats.NewRNG(poolSeed)),
			}); err != nil {
				t.Fatal(err)
			}
			return rec.batches
		}
		plain := run(&cost.Expectation{})
		timed := run(&timedStrategy{inner: &cost.Expectation{}, rec: newRecorder(), parent: -1})
		if len(plain) < 2 {
			t.Fatalf("trial %d (%s): only %d rounds, the graph is too small to tell", trial, label, len(plain))
		}
		if !reflect.DeepEqual(plain, timed) {
			t.Fatalf("trial %d (%s): decorated strategy chose different batches", trial, label)
		}
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 100e6},
		{ID: 1, Parent: 0, Name: "exec.run", Start: 10e6, End: 90e6},
		{ID: 2, Parent: 1, Name: "cost.order", Start: 20e6, End: 50e6},
		{ID: 3, Parent: 1, Name: "cost.order", Start: 60e6, End: 70e6},
	}}
	lt := r.layerTimes()
	if lt.self["query"] != 20 || lt.self["exec.run"] != 40 || lt.self["cost.order"] != 40 {
		t.Fatalf("self times %v", lt.self)
	}
	if lt.total["exec.run"] != 80 || lt.count["cost.order"] != 2 {
		t.Fatalf("totals %v counts %v", lt.total, lt.count)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestMetricNamesAgreeWithBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != refSeconds {
		t.Fatalf("run_seconds is %d, the op counts are sized for %d", bf.RunSeconds, refSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("workloads %v, the program runs %v", names, workloadNames)
	}
	e2e := map[string]string{}
	setupBound, maxBound := 0.0, 0.0
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Fatalf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Fatalf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Fatalf("end_to_end metrics differ:\nfile    %v\nprogram %v", sortedKeys(e2e), sortedKeys(endToEndUnits))
	}
	if setupBound != maxBound {
		t.Fatalf("setup_s has bound %v, the largest is %v", setupBound, maxBound)
	}
	layers := map[string]string{}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(layers, perLayerUnits) {
		t.Fatalf("per_layer metrics differ:\nfile    %v\nprogram %v", sortedKeys(layers), sortedKeys(perLayerUnits))
	}
	for _, set := range []map[string]string{endToEndUnits, perLayerUnits} {
		for name := range set {
			if !nameRE.MatchString(name) {
				t.Fatalf("metric name %q", name)
			}
		}
	}
	for name := range countMetrics {
		if _, ok := endToEndUnits[name]; !ok {
			t.Fatalf("count metric %q is not an end-to-end metric", name)
		}
	}
}

// tinyCold is a cold workload small enough for tier-1.
var tinyCold = coldSpec{
	datasets: []string{"paper"}, scale: 0.05,
	warm:  map[string]quota{"paper": {"2J": 1}},
	timed: map[string]quota{"paper": {"2J": 1, "2J1S": 2, "3J": 1, "3J1S": 2, "3J2S": 2}},
}

func checkEndToEnd(t *testing.T, name string, ps []*passResult) {
	t.Helper()
	metrics, attempted, failed := endToEnd(ps)
	if failed != 0 || attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed", name, failed, attempted)
	}
	if len(metrics) != len(endToEndUnits) {
		t.Fatalf("%s: %d metrics, want %d", name, len(metrics), len(endToEndUnits))
	}
	for k, m := range metrics {
		if m.Unit != endToEndUnits[k] {
			t.Fatalf("%s: %s has unit %q, want %q", name, k, m.Unit, endToEndUnits[k])
		}
		if !(m.Value > 0) {
			t.Fatalf("%s: %s = %v, want > 0", name, k, m.Value)
		}
	}
}

func TestTinyColdRunAndTrace(t *testing.T) {
	ops, nWarm, err := coldOps(tinyCold, 5, refSeconds)
	if err != nil {
		t.Fatal(err)
	}
	var ps []*passResult
	for i := 0; i < 2; i++ {
		p, err := coldPass(tinyCold, ops, nWarm, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	checkEndToEnd(t, "tiny cold", ps)

	// A broken determinism invariant fails every op of the run.
	bad := *ps[1]
	bad.tasks++
	if _, attempted, failed := endToEnd([]*passResult{ps[0], &bad}); failed != attempted {
		t.Fatalf("count mismatch between passes failed %d of %d ops", failed, attempted)
	}

	rec := newRecorder()
	ls, _, err := traceCold(tinyCold, ops, nWarm, rec)
	if err != nil {
		t.Fatal(err)
	}
	if ls["trace.staged_mismatch_ops"] != 0 {
		t.Fatalf("staged driver disagrees with DB.Exec on %v ops", ls["trace.staged_mismatch_ops"])
	}
	if r := ls["trace.residual_ratio"]; r < 0 || r > 0.5 {
		t.Fatalf("residual ratio %v", r)
	}
	for _, name := range []string{"cql.parse_us", "sim.join_ms", "exec.buildplan_ms", "cost.order_ms", "latency.batch_ms", "exec.run_ms", "graph.edges_per_query"} {
		if !(ls[name] > 0) {
			t.Fatalf("%s = %v, want > 0", name, ls[name])
		}
	}
	if len(ls) != len(perLayerUnits) {
		t.Fatalf("traced run reports %d metrics, want %d", len(ls), len(perLayerUnits))
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
}

func TestTinyServingRuns(t *testing.T) {
	baseline := runtime.NumGoroutine()
	hot, timed, err := serveOps(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ps []*passResult
	var byDepth [3][]outcome
	for i, depth := range []string{depthClient, depthHandler, depthEngine} {
		p, outs, err := servePass(hot, timed, depth, nil)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
		byDepth[i] = outs
	}
	// The three entry depths must agree op for op, like three passes.
	checkEndToEnd(t, "tiny serve_mix", ps)
	if ps[0].engine.QueriesCached == 0 || ps[0].engine.Rejected != 0 {
		t.Fatalf("engine stats %+v", ps[0].engine)
	}
	ls := newLayerSet()
	depthLayers(ls, timed, byDepth[0], byDepth[1], byDepth[2])
	if !(ls["engine.submit_ms_novel"] > ls["engine.submit_ms_hot"]) || !(ls["server.response_bytes"] > 0) {
		t.Fatalf("depth layers %v", ls)
	}

	j, n, err := durableOps(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps = nil
	for i := 0; i < 2; i++ {
		p, err := durablePass(filepath.Join(t.TempDir(), "ledger"), j, n, depthClient, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.ledger.Replayed == 0 || p.journalS <= 0 {
			t.Fatalf("restart replayed %d records after a %vs journal phase", p.ledger.Replayed, p.journalS)
		}
		ps = append(ps, p)
	}
	checkEndToEnd(t, "tiny durable_restart", ps)

	if end := settleGoroutines(baseline); end > baseline {
		t.Fatalf("goroutines: %d before, %d after teardown", baseline, end)
	}
}
