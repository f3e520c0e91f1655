package cost

import (
	"testing"

	"cdb/internal/graph"
	"cdb/internal/latency"
	"cdb/internal/stats"
)

// randomShapedGraph builds a random chain, star, or tree structure with
// random tuple counts and edge density — the space the cached engine
// must agree with the naive rescan on.
func randomShapedGraph(r *stats.RNG) *graph.Graph {
	var s *graph.Structure
	switch r.Intn(3) {
	case 0: // chain A-B-C-D
		s = &graph.Structure{
			Tables: []string{"A", "B", "C", "D"},
			Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}},
		}
	case 1: // star centred on A
		s = &graph.Structure{
			Tables: []string{"A", "B", "C", "D"},
			Preds:  []graph.QPred{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}},
		}
	default: // tree: B is an internal node
		s = &graph.Structure{
			Tables: []string{"A", "B", "C", "D"},
			Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 1, B: 3}},
		}
	}
	counts := make([]int, len(s.Tables))
	for i := range counts {
		counts[i] = 1 + r.Intn(3)
	}
	g := graph.MustNewGraph(s, counts)
	for p, pd := range s.Preds {
		for a := 0; a < counts[pd.A]; a++ {
			for b := 0; b < counts[pd.B]; b++ {
				if r.Bool(0.7) {
					g.AddEdge(p, a, b, 0.1+0.8*r.Float64())
				}
			}
		}
	}
	return g
}

// checkRound asserts the cached engine's ordering, scores, and
// scheduled batch are bit-identical to the naive full rescan's, then
// colors the batch randomly. Returns false when the run is complete.
func checkRound(t *testing.T, trial, round int, g *graph.Graph, e *Expectation, r *stats.RNG) bool {
	t.Helper()
	naiveOrder, naiveScore := NaiveOrderScored(g)
	order, score := e.OrderScored(g)
	if len(order) != len(naiveOrder) {
		t.Fatalf("trial %d round %d: incremental %d edges, naive %d",
			trial, round, len(order), len(naiveOrder))
	}
	for i := range order {
		if order[i] != naiveOrder[i] {
			t.Fatalf("trial %d round %d pos %d: incremental edge %d, naive %d\ninc=%v\nnaive=%v",
				trial, round, i, order[i], naiveOrder[i], order, naiveOrder)
		}
		if score[order[i]] != naiveScore[order[i]] {
			t.Fatalf("trial %d round %d edge %d: incremental score %v, naive %v",
				trial, round, order[i], score[order[i]], naiveScore[order[i]])
		}
	}
	batch := e.NextRound(g)
	naiveBatch := latency.ParallelBatchScored(g, naiveOrder, naiveScore)
	if len(naiveOrder) == 0 {
		naiveBatch = nil
	}
	if len(batch) != len(naiveBatch) {
		t.Fatalf("trial %d round %d: batch %v vs naive %v", trial, round, batch, naiveBatch)
	}
	for i := range batch {
		if batch[i] != naiveBatch[i] {
			t.Fatalf("trial %d round %d: batch %v vs naive %v", trial, round, batch, naiveBatch)
		}
	}
	if len(batch) == 0 {
		return false
	}
	for _, id := range batch {
		if r.Bool(g.Edge(id).W) {
			g.SetColor(id, graph.Blue)
		} else {
			g.SetColor(id, graph.Red)
		}
	}
	return true
}

// TestIncrementalMatchesNaive is the engine's core property test: over
// randomized chain/star/tree graphs and random coloring sequences, the
// cached, bundle-shared ordering must equal the naive per-edge rescan
// exactly — same edges, same order, same float bits — every round until
// the run completes.
func TestIncrementalMatchesNaive(t *testing.T) {
	r := stats.NewRNG(42)
	for trial := 0; trial < 220; trial++ {
		g := randomShapedGraph(r)
		e := &Expectation{}
		for round := 0; ; round++ {
			if round > 200 {
				t.Fatalf("trial %d: does not terminate", trial)
			}
			if !checkRound(t, trial, round, g, e, r) {
				break
			}
		}
	}
}

// TestIncrementalMatchesNaiveReused drives every graph with one
// strategy value: the bundle-term table of the previous graph (same
// size or not) must never leak a term into the next one.
func TestIncrementalMatchesNaiveReused(t *testing.T) {
	r := stats.NewRNG(1234)
	e := &Expectation{}
	for trial := 0; trial < 60; trial++ {
		g := randomShapedGraph(r)
		for round := 0; ; round++ {
			if round > 200 {
				t.Fatalf("trial %d: does not terminate", trial)
			}
			if !checkRound(t, trial, round, g, e, r) {
				break
			}
		}
	}
}

// distinctBundles counts the (tuple, predicate) bundles the edges touch.
func distinctBundles(g *graph.Graph, edges []int) int {
	type bundle struct{ v, pred int }
	seen := map[bundle]bool{}
	for _, id := range edges {
		ed := g.Edge(id)
		seen[bundle{ed.U, ed.Pred}] = true
		seen[bundle{ed.V, ed.Pred}] = true
	}
	return len(seen)
}

// TestScoreEdgesOneCutLossPerBundle pins what the bundle table is for:
// a rescore — the first, and each one after a colored batch — evaluates
// exactly one term per distinct (tuple, predicate) among the edges it
// scores, never one per edge endpoint, on chain, star and tree graphs
// alike.
func TestScoreEdgesOneCutLossPerBundle(t *testing.T) {
	r := stats.NewRNG(2024)
	e := &Expectation{}
	shared, later := 0, 0
	for trial := 0; trial < 120; trial++ {
		g := randomShapedGraph(r)
		before := mBundleTerms.Value()
		order, _ := e.orderScored(g)
		got := int(mBundleTerms.Value() - before)
		if want := distinctBundles(g, order); got != want {
			t.Fatalf("trial %d first rescore: %d terms for %d bundles (%d edges)", trial, got, want, len(order))
		}
		if got < 2*len(order) {
			shared++
		}
		for len(order) > 0 {
			colorSome(g, order, 2, r)
			full, _, _ := e.CacheStats()
			before = mBundleTerms.Value()
			order, _ = e.orderScored(g)
			if f, _, _ := e.CacheStats(); f != full+1 {
				t.Fatalf("trial %d: coloring edges did not rescore", trial)
			}
			later++
			got = int(mBundleTerms.Value() - before)
			if want := distinctBundles(g, order); got != want {
				t.Fatalf("trial %d rescore after a batch: %d terms for %d bundles (%d edges)", trial, got, want, len(order))
			}
		}
	}
	if shared == 0 || later == 0 {
		t.Fatalf("vacuous: %d graphs with a shared bundle, %d rescores after a batch", shared, later)
	}
}

// TestIncrementalCacheResets is the no-stale-order test: one strategy
// value reuses its order, score and term buffers across calls, and
// after a graph swap, a weight change and an un-coloring each call must
// return the from-scratch order, never the previous one.
func TestIncrementalCacheResets(t *testing.T) {
	r := stats.NewRNG(77)
	e := &Expectation{}

	g1 := randomShapedGraph(r)
	e.OrderScored(g1)

	// New graph identity.
	g2 := randomShapedGraph(r)
	order, score := e.OrderScored(g2)
	naiveOrder, naiveScore := NaiveOrderScored(g2)
	for i := range order {
		if order[i] != naiveOrder[i] || score[order[i]] != naiveScore[order[i]] {
			t.Fatal("stale cache served after graph swap")
		}
	}

	// Weight change on the same graph.
	if g2.NumEdges() > 0 {
		g2.SetWeight(0, 0.123)
		order, score = e.OrderScored(g2)
		naiveOrder, naiveScore = NaiveOrderScored(g2)
		for i := range order {
			if order[i] != naiveOrder[i] || score[order[i]] != naiveScore[order[i]] {
				t.Fatal("stale cache served after SetWeight")
			}
		}
	}

	// Un-coloring (Red -> Unknown) can grow the valid set again.
	if g2.NumEdges() > 1 {
		g2.SetColor(1, graph.Red)
		e.OrderScored(g2)
		g2.SetColor(1, graph.Unknown)
		order, score = e.OrderScored(g2)
		naiveOrder, naiveScore = NaiveOrderScored(g2)
		if len(order) != len(naiveOrder) {
			t.Fatal("stale cache served after un-coloring")
		}
		for i := range order {
			if order[i] != naiveOrder[i] || score[order[i]] != naiveScore[order[i]] {
				t.Fatal("stale cache served after un-coloring")
			}
		}
	}
}

// TestNaiveExpectationStrategy keeps the retained reference strategy
// usable end to end (it backs the equivalence benchmarks).
func TestNaiveExpectationStrategy(t *testing.T) {
	r := stats.NewRNG(5)
	g := buildRandomChain(r, []int{2, 3, 3, 2}, 0.8)
	o := newOracle(g, r, 0.5)
	tasks, _ := drive(t, g, &NaiveExpectation{}, o)
	if tasks == 0 {
		t.Fatal("naive strategy asked nothing")
	}
	if !answersMatch(g, o) {
		t.Fatal("naive strategy missed answers")
	}
}
