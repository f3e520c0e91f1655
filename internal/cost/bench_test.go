package cost

import (
	"testing"

	"cdb/internal/graph"
	"cdb/internal/obs"
	"cdb/internal/stats"
)

// benchGraph builds a chain-query graph of disjoint 2-tuple blocks:
// every block contributes 3 edges per predicate and forms its own
// connected component — thousands of small components, each of which a
// packed round asks an edge of.
func benchGraph(blocks int, r *stats.RNG) *graph.Graph {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	n := 2 * blocks
	g := graph.MustNewGraph(s, []int{n, n, n})
	specs := make([]graph.EdgeSpec, 0, 3*len(s.Preds)*blocks)
	for b := 0; b < blocks; b++ {
		for p := range s.Preds {
			for _, rows := range [3][2]int{{2 * b, 2 * b}, {2 * b, 2*b + 1}, {2*b + 1, 2*b + 1}} {
				specs = append(specs, graph.EdgeSpec{Pred: p, RowA: rows[0], RowB: rows[1], W: 0.1 + 0.8*r.Float64()})
			}
		}
	}
	g.AddEdges(specs)
	return g
}

// connectedGraph builds the opposite shape: a three-predicate chain in
// which every tuple has 3 edges per incident predicate, so the whole
// edge set is one giant component (latency's connectedChain) — what a
// scaled similarity join looks like, and what the disjoint blocks miss.
func connectedGraph(n int, r *stats.RNG) *graph.Graph {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C", "D"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}},
	}
	g := graph.MustNewGraph(s, []int{n, n, n, n})
	specs := make([]graph.EdgeSpec, 0, 3*len(s.Preds)*n)
	for p := range s.Preds {
		for a := 0; a < n; a++ {
			for k := 0; k < 3; k++ {
				specs = append(specs, graph.EdgeSpec{Pred: p, RowA: a, RowB: (a + k) % n, W: 0.1 + 0.8*r.Float64()})
			}
		}
	}
	g.AddEdges(specs)
	return g
}

// colorSome colors the first k edges of batch from their weights.
func colorSome(g *graph.Graph, batch []int, k int, r *stats.RNG) {
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
}

// benchNextRound measures steady-state NextRound cost the way the
// executor incurs it: after a priming first round, each iteration
// colors the whole pending batch, as exec.Run does, and asks for the
// next. The graph is rebuilt (outside the timer) when a run exhausts it.
func benchNextRound(b *testing.B, build func(*stats.RNG) *graph.Graph, strat Strategy, prime func()) {
	r := stats.NewRNG(9)
	g := build(r)
	prime()
	batch := strat.NextRound(g)
	b.ReportMetric(float64(g.NumEdges()), "edges")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(batch) == 0 {
			b.StopTimer()
			g = build(r)
			prime()
			batch = strat.NextRound(g)
			b.StartTimer()
		}
		colorSome(g, batch, len(batch), r)
		batch = strat.NextRound(g)
	}
}

func blocks(n int) func(*stats.RNG) *graph.Graph {
	return func(r *stats.RNG) *graph.Graph { return benchGraph(n, r) }
}

func BenchmarkNextRound2k(b *testing.B) {
	e := &Expectation{}
	benchNextRound(b, blocks(400), e, func() { *e = Expectation{} })
}

func BenchmarkNextRoundNaive2k(b *testing.B) {
	benchNextRound(b, blocks(400), &NaiveExpectation{}, func() {})
}

func BenchmarkNextRound10k(b *testing.B) {
	e := &Expectation{}
	benchNextRound(b, blocks(1700), e, func() { *e = Expectation{} })
}

func BenchmarkNextRoundNaive10k(b *testing.B) {
	benchNextRound(b, blocks(1700), &NaiveExpectation{}, func() {})
}

// BenchmarkNextRoundConnected is the 10k case over one giant component
// (9 000 edges).
func BenchmarkNextRoundConnected(b *testing.B) {
	e := &Expectation{}
	benchNextRound(b, func(r *stats.RNG) *graph.Graph { return connectedGraph(1000, r) },
		e, func() { *e = Expectation{} })
}

// BenchmarkObsOverhead quantifies the observability probes in the
// round-scoring hot path. "disabled" is the production default — nil
// tracer, so every probe is one branch and zero allocation — and runs
// the exact configuration of BenchmarkNextRound2k; compare
// the two to bound the instrumentation regression (<2% is the
// contract). "traced" attaches a live collecting tracer, the cost a
// query pays when tracing is actually on.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		e := &Expectation{}
		benchNextRound(b, blocks(400), e, func() { *e = Expectation{} })
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		r := stats.NewRNG(9)
		e := &Expectation{}
		g := benchGraph(400, r)
		e.SetTracer(obs.NewTracer(nil))
		batch := e.NextRound(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(batch) == 0 {
				b.StopTimer()
				g = benchGraph(400, r)
				*e = Expectation{}
				batch = e.NextRound(g)
				b.StartTimer()
			}
			// A fresh tracer per iteration, as the executor hands each
			// query its own: span storage stays bounded and the tracer
			// setup cost is charged to the traced path where it belongs.
			e.SetTracer(obs.NewTracer(nil))
			colorSome(g, batch, len(batch), r)
			batch = e.NextRound(g)
		}
	})
}

// BenchmarkOrderScoredFirstRound isolates the first rescore of a graph,
// when every edge is still askable.
func BenchmarkOrderScoredFirstRound(b *testing.B) {
	r := stats.NewRNG(9)
	g := benchGraph(1700, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &Expectation{}
		e.orderScored(g)
	}
}
