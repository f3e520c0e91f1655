package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cdb/internal/cost"
	"cdb/internal/dataset"
	"cdb/internal/graph"
	"cdb/internal/sim"
	"cdb/internal/stats"
)

// RoundBenchResult compares steady-state NextRound cost (after the
// priming first round, coloring a handful of edges per round) between
// the incremental engine and the naive full-rescan reference.
type RoundBenchResult struct {
	Edges              int     `json:"edges"`
	Components         int     `json:"components"`
	IncrementalNsRound float64 `json:"incremental_ns_per_round"`
	NaiveNsRound       float64 `json:"naive_ns_per_round"`
	Speedup            float64 `json:"speedup"`
}

// JoinBenchResult times sim.Join on one named input; N is the left
// side's row count.
type JoinBenchResult struct {
	Input  string  `json:"input"`
	N      int     `json:"n"`
	NsJoin float64 `json:"ns_per_join"`
}

// CostBenchReport is the schema of BENCH_cost.json — the perf
// trajectory record for the incremental cost-control engine.
type CostBenchReport struct {
	Date       string             `json:"date"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Rounds     []RoundBenchResult `json:"rounds"`
	Joins      []JoinBenchResult  `json:"joins"`
}

// costBenchGraph builds the disjoint-block chain graph the round
// benchmarks run on: 6 edges per predicate-pair block, every block its
// own connected component.
func costBenchGraph(blocks int, r *stats.RNG) *graph.Graph {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	n := 2 * blocks
	g := graph.MustNewGraph(s, []int{n, n, n})
	for b := 0; b < blocks; b++ {
		for p := range s.Preds {
			g.AddEdge(p, 2*b, 2*b, 0.1+0.8*r.Float64())
			g.AddEdge(p, 2*b, 2*b+1, 0.1+0.8*r.Float64())
			g.AddEdge(p, 2*b+1, 2*b+1, 0.1+0.8*r.Float64())
		}
	}
	return g
}

// costBenchConnected builds the shape the disjoint blocks miss: a
// three-predicate chain A–B–C–D in which every tuple has `degree`
// edges per incident predicate, wired round the table so the whole
// graph is one connected component. Every scheduling round then packs
// its batch out of a single giant component — where a scaled
// similarity join puts the scheduler.
func costBenchConnected(n, degree int, r *stats.RNG) *graph.Graph {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C", "D"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}},
	}
	g := graph.MustNewGraph(s, []int{n, n, n, n})
	for p := range s.Preds {
		for a := 0; a < n; a++ {
			for k := 0; k < degree; k++ {
				g.AddEdge(p, a, (a+k)%n, 0.1+0.8*r.Float64())
			}
		}
	}
	return g
}

// measureRounds times `rounds` steady-state scheduling rounds on the
// graphs build returns: color 16 edges of the pending batch, recompute
// the next batch. Graph rebuilds (on exhaustion) happen outside the
// timer.
func measureRounds(build func(*stats.RNG) *graph.Graph, rounds int, strat cost.Strategy, reset func()) (nsPerRound float64, edges int) {
	r := stats.NewRNG(9)
	g := build(r)
	edges = g.NumEdges()
	reset()
	batch := strat.NextRound(g) // priming first round: full rescore
	var total time.Duration
	for i := 0; i < rounds; i++ {
		if len(batch) == 0 {
			g = build(r)
			reset()
			batch = strat.NextRound(g)
		}
		k := 16
		if k > len(batch) {
			k = len(batch)
		}
		for _, id := range batch[:k] {
			if r.Bool(g.Edge(id).W) {
				g.SetColor(id, graph.Blue)
			} else {
				g.SetColor(id, graph.Red)
			}
		}
		start := time.Now()
		batch = strat.NextRound(g)
		total += time.Since(start)
	}
	return float64(total.Nanoseconds()) / float64(rounds), edges
}

// benchRoundScale measures both engines on graphs from build, which
// have the stated number of connected components.
func benchRoundScale(build func(*stats.RNG) *graph.Graph, components, rounds int) RoundBenchResult {
	e := &cost.Expectation{}
	incNs, edges := measureRounds(build, rounds, e, func() { *e = cost.Expectation{} })
	naiveNs, _ := measureRounds(build, rounds, &cost.NaiveExpectation{}, func() {})
	return RoundBenchResult{
		Edges:              edges,
		Components:         components,
		IncrementalNsRound: incNs,
		NaiveNsRound:       naiveNs,
		Speedup:            naiveNs / incNs,
	}
}

// joinBenchInput is one sim.Join call to time.
type joinBenchInput struct {
	name        string
	left, right []string
	eps         float64
}

// joinBenchInputs are the joins the guard ratchets: random phrases over
// eleven short words at eps 0.5 (the historical rows), and the two
// column pairs of the paper dataset that bracket the traffic BuildPlan
// sends — long titles, where nearly every pair shares a 2-gram, and
// short names — at the system's eps 0.3.
func joinBenchInputs() []joinBenchInput {
	r := stats.NewRNG(11)
	words := []string{"univ", "of", "california", "chicago", "duke",
		"dept", "nutrition", "cambridge", "microsoft", "lab", "inst"}
	phrases := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			k := 1 + r.Intn(4)
			s := ""
			for w := 0; w < k; w++ {
				if w > 0 {
					s += " "
				}
				s += words[r.Intn(len(words))]
			}
			out[i] = s
		}
		return out
	}
	var inputs []joinBenchInput
	for _, n := range []int{300, 1000} {
		inputs = append(inputs, joinBenchInput{"words", phrases(n), phrases(n), 0.5})
	}
	for _, scale := range []float64{0.3, 1.0} {
		d := dataset.GenPaper(dataset.Config{Seed: 1, Scale: scale})
		column := func(table, col string) []string {
			t, _ := d.Catalog.Get(table)
			c := t.Schema.MustColIndex(col)
			out := make([]string, t.Len())
			for r := range out {
				out[r] = t.Cell(r, c).S
			}
			return out
		}
		inputs = append(inputs,
			joinBenchInput{"Paper.title x Citation.title", column("Paper", "title"), column("Citation", "title"), 0.3},
			joinBenchInput{"Researcher.affiliation x University.name", column("Researcher", "affiliation"), column("University", "name"), 0.3})
	}
	return inputs
}

func benchJoin(in joinBenchInput, reps int) JoinBenchResult {
	sim.Join(sim.Gram2Jaccard, in.left, in.right, in.eps) // warm up
	start := time.Now()
	for i := 0; i < reps; i++ {
		sim.Join(sim.Gram2Jaccard, in.left, in.right, in.eps)
	}
	return JoinBenchResult{
		Input:  in.name,
		N:      len(in.left),
		NsJoin: float64(time.Since(start).Nanoseconds()) / float64(reps),
	}
}

// RunCostBench executes the incremental-engine benchmarks and writes
// the report to path (BENCH_cost.json), echoing a summary to w.
// procs > 0 pins GOMAXPROCS for the run (restored on return) so the
// garbage collector gets the same help on every host; the effective
// value is recorded in the report either way.
func RunCostBench(path string, procs int, w io.Writer) error {
	if procs > 0 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
	}
	report := CostBenchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(w, "GOMAXPROCS=%d\n", report.GoMaxProcs)
	roundShapes := []struct {
		build      func(*stats.RNG) *graph.Graph
		components int
	}{
		{func(r *stats.RNG) *graph.Graph { return costBenchGraph(400, r) }, 400},   // ~2.4k edges
		{func(r *stats.RNG) *graph.Graph { return costBenchGraph(1700, r) }, 1700}, // ~10.2k edges
		{func(r *stats.RNG) *graph.Graph { return costBenchConnected(300, 3, r) }, 1},
	}
	for _, shape := range roundShapes {
		res := benchRoundScale(shape.build, shape.components, 80)
		report.Rounds = append(report.Rounds, res)
		fmt.Fprintf(w, "round scoring %6d edges in %4d components: incremental %.2fms  naive %.2fms  speedup %.2fx\n",
			res.Edges, res.Components, res.IncrementalNsRound/1e6, res.NaiveNsRound/1e6, res.Speedup)
	}
	for _, in := range joinBenchInputs() {
		res := benchJoin(in, 3)
		report.Joins = append(report.Joins, res)
		fmt.Fprintf(w, "sim.Join %s n=%d: %.2fms\n", res.Input, res.N, res.NsJoin/1e6)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
