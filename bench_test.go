package cdb_test

// One testing.B benchmark per table/figure of the paper (DESIGN.md §4
// maps each to its experiment). They execute the same code paths as
// cmd/cdbench at a reduced scale so `go test -bench=.` regenerates
// every result quickly; crank the scale/reps through cmd/cdbench for
// paper-sized runs.

import (
	"context"
	"testing"

	"cdb"

	"cdb/internal/bench"
	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/quality"
	"cdb/internal/sim"
	"cdb/internal/stats"
)

func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Scale = 0.06
	cfg.Reps = 1
	cfg.Samples = 10
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	runner := bench.Registry[id]
	if runner == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		tables, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkFig1Motivating regenerates Figure 1 (tuple-level vs
// table-level optimization on the motivating example).
func BenchmarkFig1Motivating(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig8Cost regenerates Figures 8–10 (cost, quality and
// latency of the nine methods on the five queries, simulated crowd).
func BenchmarkFig8Cost(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig11WorkerQuality regenerates Figure 11 (sweeping the
// simulated worker quality).
func BenchmarkFig11WorkerQuality(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig14to16Real regenerates Figures 14–16 (the AMT-like
// high-quality crowd with HIT pricing).
func BenchmarkFig14to16Real(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig17Collect regenerates Figure 17 (COLLECT and FILL vs
// Deco).
func BenchmarkFig17Collect(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkFig18Budget regenerates Figures 18–19 (budget-aware
// selection recall/precision curves).
func BenchmarkFig18Budget(b *testing.B) { runExperiment(b, "fig18") }

// BenchmarkFig20Redundancy regenerates Figure 20 (CDB+ vs majority
// voting as redundancy grows).
func BenchmarkFig20Redundancy(b *testing.B) { runExperiment(b, "fig20") }

// BenchmarkFig21QualityCost regenerates Figure 21 (quality vs number
// of questions).
func BenchmarkFig21QualityCost(b *testing.B) { runExperiment(b, "fig21") }

// BenchmarkFig22CostLatency regenerates Figure 22 (cost under a
// latency constraint).
func BenchmarkFig22CostLatency(b *testing.B) { runExperiment(b, "fig22") }

// BenchmarkFig23Similarity regenerates Figures 23–24 (similarity
// function ablation).
func BenchmarkFig23Similarity(b *testing.B) { runExperiment(b, "fig23") }

// BenchmarkTable5Efficiency regenerates Table 5 (optimizer
// efficiency).
func BenchmarkTable5Efficiency(b *testing.B) { runExperiment(b, "table5") }

// --- micro-benchmarks of the core machinery ---

func benchPlan(b *testing.B, scale float64, query string) *exec.Plan {
	b.Helper()
	d := dataset.GenPaper(dataset.Config{Seed: 42, Scale: scale})
	st, err := cql.Parse(dataset.Queries("paper")[query])
	if err != nil {
		b.Fatal(err)
	}
	p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.DefaultPlanConfig())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkExpectationOrder measures one full pruning-expectation
// ranking pass (Eq. 1 for every valid edge).
func BenchmarkExpectationOrder(b *testing.B) {
	p := benchPlan(b, 0.15, "3J")
	e := &cost.Expectation{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(e.Order(p.G)) == 0 {
			b.Fatal("empty order")
		}
	}
}

// BenchmarkKnownColorSelect measures the Lemma-1 optimal selection
// (blue chains + min-cut) on a known coloring.
func BenchmarkKnownColorSelect(b *testing.B) {
	p := benchPlan(b, 0.15, "2J")
	colorOf := func(e int) graph.Color {
		if p.Truth[e] {
			return graph.Blue
		}
		return graph.Red
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(cost.KnownColorSelect(p.G, colorOf)) == 0 {
			b.Fatal("empty selection")
		}
	}
}

// BenchmarkSimilarityJoin measures the prefix-filtering similarity
// join on the paper dataset's title columns.
func BenchmarkSimilarityJoin(b *testing.B) {
	d := dataset.GenPaper(dataset.Config{Seed: 7, Scale: 0.3})
	pap, _ := d.Catalog.Get("Paper")
	cit, _ := d.Catalog.Get("Citation")
	tCol := pap.Schema.MustColIndex("title")
	cCol := cit.Schema.MustColIndex("title")
	var left, right []string
	for r := 0; r < pap.Len(); r++ {
		left = append(left, pap.Cell(r, tCol).S)
	}
	for r := 0; r < cit.Len(); r++ {
		right = append(right, cit.Cell(r, cCol).S)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Join(sim.Gram2Jaccard, left, right, 0.3)
	}
}

// BenchmarkEMInference measures EM truth inference over a realistic
// answer matrix (200 binary tasks × 5 answers).
func BenchmarkEMInference(b *testing.B) {
	rng := stats.NewRNG(3)
	pool := crowd.NewPool(25, 0.8, 0.1, rng)
	tasks := make([]quality.ChoiceTask, 200)
	for i := range tasks {
		tasks[i].Choices = 2
		truth := rng.Intn(2)
		for _, w := range pool.DistinctArrivals(5) {
			tasks[i].Answers = append(tasks[i].Answers,
				quality.ChoiceAnswer{Worker: w.ID, Choice: w.AnswerChoice(truth, 2)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := quality.NewWorkerModel()
		m.InferEM(tasks, 50)
	}
}

// BenchmarkEndToEnd2J measures a complete CDB execution (plan + run)
// of the 2J query with a perfect crowd.
func BenchmarkEndToEnd2J(b *testing.B) {
	d := dataset.GenPaper(dataset.Config{Seed: 42, Scale: 0.08})
	st, _ := cql.Parse(dataset.Queries("paper")["2J"])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.DefaultPlanConfig())
		if err != nil {
			b.Fatal(err)
		}
		_, err = exec.Run(context.Background(), p, exec.Options{
			Strategy:   &cost.Expectation{},
			Redundancy: 1,
			Pool:       crowd.NewPerfectPool(20, stats.NewRNG(uint64(i))),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSamplerSize contrasts the MinCut sampling greedy at
// different sample counts against the expectation method (DESIGN.md's
// sampler-size ablation).
func BenchmarkAblationSamplerSize(b *testing.B) {
	for _, samples := range []int{5, 20, 50} {
		b.Run("samples="+itoa(samples), func(b *testing.B) {
			d := dataset.GenPaper(dataset.Config{Seed: 42, Scale: 0.06})
			st, _ := cql.Parse(dataset.Queries("paper")["2J"])
			for i := 0; i < b.N; i++ {
				p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.DefaultPlanConfig())
				if err != nil {
					b.Fatal(err)
				}
				_, err = exec.Run(context.Background(), p, exec.Options{
					Strategy:   cost.NewMinCutSampling(samples, stats.NewRNG(uint64(i))),
					Redundancy: 1,
					Pool:       crowd.NewPerfectPool(20, stats.NewRNG(uint64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSimJoin contrasts the index-based similarity join
// with the brute-force scan on the same inputs.
func BenchmarkAblationSimJoin(b *testing.B) {
	d := dataset.GenPaper(dataset.Config{Seed: 7, Scale: 0.2})
	res, _ := d.Catalog.Get("Researcher")
	uni, _ := d.Catalog.Get("University")
	aCol := res.Schema.MustColIndex("affiliation")
	nCol := uni.Schema.MustColIndex("name")
	var left, right []string
	for r := 0; r < res.Len(); r++ {
		left = append(left, res.Cell(r, aCol).S)
	}
	for r := 0; r < uni.Len(); r++ {
		right = append(right, uni.Cell(r, nCol).S)
	}
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Join(sim.Gram2Jaccard, left, right, 0.3)
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.BruteForceJoin(sim.Gram2Jaccard, left, right, 0.3)
		}
	})
}

// BenchmarkAblationEpsilon measures how the pruning threshold shapes
// graph size and cost.
func BenchmarkAblationEpsilon(b *testing.B) {
	d := dataset.GenPaper(dataset.Config{Seed: 42, Scale: 0.06})
	st, _ := cql.Parse(dataset.Queries("paper")["2J"])
	for _, eps := range []float64{0.2, 0.3, 0.4} {
		b.Run("eps="+ftoa(eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle,
					exec.PlanConfig{Sim: sim.Gram2Jaccard, Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
				_, err = exec.Run(context.Background(), p, exec.Options{
					Strategy:   &cost.Expectation{},
					Redundancy: 1,
					Pool:       crowd.NewPerfectPool(20, stats.NewRNG(uint64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func ftoa(f float64) string {
	return itoa(int(f*10)) + "e-1"
}

// BenchmarkAblationScheduler contrasts the two latency-control modes:
// the default score-aware packing and fully serial asking.
func BenchmarkAblationScheduler(b *testing.B) {
	d := dataset.GenPaper(dataset.Config{Seed: 42, Scale: 0.08})
	st, _ := cql.Parse(dataset.Queries("paper")["2J"])
	for _, mode := range []string{"packed", "serial"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.DefaultPlanConfig())
				if err != nil {
					b.Fatal(err)
				}
				strat := &cost.Expectation{Serial: mode == "serial"}
				rep, err := exec.Run(context.Background(), p, exec.Options{
					Strategy:   strat,
					Redundancy: 1,
					Pool:       crowd.NewPerfectPool(20, stats.NewRNG(uint64(i))),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Metrics.Tasks), "tasks")
				b.ReportMetric(float64(rep.Metrics.Rounds), "rounds")
			}
		})
	}
}

// BenchmarkAblationCalibration measures the adaptive
// similarity→probability calibration (§4.1) against raw similarity
// weights.
func BenchmarkAblationCalibration(b *testing.B) {
	d := dataset.GenPaper(dataset.Config{Seed: 42, Scale: 0.08})
	st, _ := cql.Parse(dataset.Queries("paper")["2J"])
	for _, calibrate := range []bool{false, true} {
		name := "raw-similarity"
		if calibrate {
			name = "calibrated"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.DefaultPlanConfig())
				if err != nil {
					b.Fatal(err)
				}
				rep, err := exec.Run(context.Background(), p, exec.Options{
					Strategy:   &cost.Expectation{},
					Redundancy: 1,
					Pool:       crowd.NewPerfectPool(20, stats.NewRNG(uint64(i))),
					Calibrate:  calibrate,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Metrics.Tasks), "tasks")
			}
		})
	}
}

// BenchmarkGroupSort measures the crowd GROUP BY / ORDER BY extension:
// the running example's join grouped by venue, then ordered by
// citation count, on a fresh DB per iteration.
func BenchmarkGroupSort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := cdb.Open(cdb.WithDataset("example", 0, 1), cdb.WithPerfectWorkers(30), cdb.WithSeed(uint64(i+1)))
		for _, q := range []string{
			`SELECT Paper.conference FROM Paper, Citation
			WHERE Paper.title CROWDJOIN Citation.title
			GROUP BY Paper.conference;`,
			`SELECT Paper.title, Citation.number FROM Paper, Citation
			WHERE Paper.title CROWDJOIN Citation.title
			ORDER BY Citation.number;`,
		} {
			if _, err := db.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
