package cost

import (
	"slices"
	"testing"

	"cdb/internal/graph"
	"cdb/internal/latency"
	"cdb/internal/stats"
)

// checkTransRound mirrors checkRound for closure mode: the incremental
// strategy (one overlay, updated round by round) must order and score
// bit-identically to the naive path driven by a *fresh* overlay
// rebuilt from the journal each round — which simultaneously checks
// the incremental cache and the closure's replay determinism. The
// round's verdicts are colored AND the closure's entailed labels are
// applied, mimicking exec's inference step.
func checkTransRound(t *testing.T, trial, round int, g *graph.Graph, e *Expectation, r *stats.RNG) bool {
	t.Helper()
	ncl := graph.NewClosure(g)
	naiveOrder, naiveScore := NaiveOrderScoredClosure(g, ncl)
	order, score := e.OrderScored(g)
	if len(order) != len(naiveOrder) {
		t.Fatalf("trial %d round %d: incremental %d edges, naive %d\ninc=%v\nnaive=%v",
			trial, round, len(order), len(naiveOrder), order, naiveOrder)
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
	naiveBatch := TransBatch(g, ncl, latency.ParallelBatchScored(g, naiveOrder, naiveScore))
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
	// Apply inference exactly like the executor: one pass over the
	// snapshot of valid uncolored edges.
	cl := e.closure
	cl.Update()
	for _, id := range g.ValidUncolored() {
		if col, _, ok := cl.Entails(id); ok {
			g.SetColor(id, col)
		}
	}
	return true
}

// TestTransIncrementalMatchesNaive extends the core equivalence
// property to transitive-inference mode: entailed-edge filtering and
// the yield-first ordering must come out bit-identical between the
// incremental cache and a naive full rescan with a freshly replayed
// closure, every round.
func TestTransIncrementalMatchesNaive(t *testing.T) {
	r := stats.NewRNG(99)
	for trial := 0; trial < 220; trial++ {
		g := randomShapedGraph(r)
		e := &Expectation{}
		e.SetClosure(graph.NewClosure(g))
		for round := 0; ; round++ {
			if round > 200 {
				t.Fatalf("trial %d: does not terminate", trial)
			}
			if !checkTransRound(t, trial, round, g, e, r) {
				break
			}
		}
		e.SetClosure(nil)
	}
}

// TestTransIncrementalMatchesNaiveReused is the closure-mode run with
// one strategy value across all graphs (see
// TestIncrementalMatchesNaiveReused).
func TestTransIncrementalMatchesNaiveReused(t *testing.T) {
	r := stats.NewRNG(4321)
	e := &Expectation{}
	for trial := 0; trial < 60; trial++ {
		g := randomShapedGraph(r)
		e.SetClosure(graph.NewClosure(g))
		for round := 0; ; round++ {
			if round > 200 {
				t.Fatalf("trial %d: does not terminate", trial)
			}
			if !checkTransRound(t, trial, round, g, e, r) {
				break
			}
		}
	}
}

// TestPriorityLeadsTheOrder pins what a planned order is to the
// strategy: a leading key over the keys it already had. Every round,
// with the closure and without, the order must be the naive reference's
// regrouped stably by predicate rank — nothing inside a rank moves.
func TestPriorityLeadsTheOrder(t *testing.T) {
	r := stats.NewRNG(2020)
	for trial := 0; trial < 120; trial++ {
		g := randomShapedGraph(r)
		e := &Expectation{Priority: r.Perm(len(g.S.Preds))}
		var cl *graph.Closure
		if trial%2 == 1 {
			cl = graph.NewClosure(g)
			e.SetClosure(cl)
		}
		for round := 0; ; round++ {
			if round > 200 {
				t.Fatalf("trial %d: does not terminate", trial)
			}
			want, _ := NaiveOrderScoredClosure(g, cl)
			slices.SortStableFunc(want, func(a, b int) int {
				return e.Priority[g.Edge(a).Pred] - e.Priority[g.Edge(b).Pred]
			})
			if got := e.Order(g); !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d (closure %v): order %v, want the reference grouped by rank %v",
					trial, round, cl != nil, got, want)
			}
			batch := e.NextRound(g)
			if len(batch) == 0 {
				break
			}
			for _, id := range batch {
				if r.Bool(g.Edge(id).W) {
					g.SetColor(id, graph.Blue)
				} else {
					g.SetColor(id, graph.Red)
				}
			}
		}
	}
}

// TestFlushSkipsEntailed pins the satellite fix directly: neither
// Expectation.Flush, NaiveExpectation.Flush nor Budget.NextRound may
// return an edge whose label the overlay entails.
func TestFlushSkipsEntailed(t *testing.T) {
	s := &graph.Structure{Tables: []string{"L", "R"}, Preds: []graph.QPred{{A: 0, B: 1}}}
	g := graph.MustNewGraph(s, []int{2, 2})
	e00 := g.AddEdge(0, 0, 0, 0.9)
	e01 := g.AddEdge(0, 0, 1, 0.9)
	e10 := g.AddEdge(0, 1, 0, 0.9)
	e11 := g.AddEdge(0, 1, 1, 0.9)
	g.SetColor(e00, graph.Blue)
	g.SetColor(e01, graph.Blue)
	g.SetColor(e10, graph.Blue) // cluster {a0, a1, b0, b1} → e11 entailed Blue

	cl := graph.NewClosure(g)
	exp := &Expectation{}
	exp.SetClosure(cl)
	for _, id := range exp.Flush(g) {
		if id == e11 {
			t.Fatal("Expectation.Flush returned an entailed edge")
		}
	}
	nv := &NaiveExpectation{}
	nv.SetClosure(cl)
	for _, id := range nv.Flush(g) {
		if id == e11 {
			t.Fatal("NaiveExpectation.Flush returned an entailed edge")
		}
	}
	bd := &Budget{}
	bd.SetClosure(cl)
	for _, id := range bd.NextRound(g) {
		if id == e11 {
			t.Fatal("Budget.NextRound spent budget on an entailed edge")
		}
	}
}
