package latency

import (
	"testing"

	"cdb/internal/graph"
	"cdb/internal/stats"
)

func buildChain(counts []int, density float64, r *stats.RNG) *graph.Graph {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, counts)
	for p, pd := range s.Preds {
		for a := 0; a < counts[pd.A]; a++ {
			for b := 0; b < counts[pd.B]; b++ {
				if r == nil || r.Bool(density) {
					g.AddEdge(p, a, b, 0.5)
				}
			}
		}
	}
	return g
}

// parallelBatch is ParallelBatchScored without scores.
func parallelBatch(g *graph.Graph, order []int) []int { return ParallelBatchScored(g, order, nil) }

func order(g *graph.Graph) []int {
	out := make([]int, g.NumEdges())
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelBatchNoConflicts(t *testing.T) {
	r := stats.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		g := buildChain([]int{2, 3, 2}, 0.8, r)
		batch := parallelBatch(g, order(g))
		for i := 0; i < len(batch); i++ {
			for j := i + 1; j < len(batch); j++ {
				if g.SameCandidate(batch[i], batch[j]) {
					t.Fatalf("trial %d: batch edges %d and %d conflict", trial, batch[i], batch[j])
				}
			}
		}
	}
}

func TestParallelBatchSkipsColoredAndInvalid(t *testing.T) {
	g := buildChain([]int{2, 2, 2}, 1, nil)
	g.SetColor(0, graph.Blue)
	g.SetColor(4, graph.Red)
	g.SetColor(5, graph.Red) // b0 cut off from C: edges 0,2 invalid
	batch := parallelBatch(g, order(g))
	for _, e := range batch {
		if g.Edge(e).Color != graph.Unknown {
			t.Fatalf("batch contains colored edge %d", e)
		}
		if !g.IsValid(e) {
			t.Fatalf("batch contains invalid edge %d", e)
		}
	}
}

func TestParallelBatchSameTableRule(t *testing.T) {
	// Edges sharing only different tuples of the same table are
	// non-conflicting: a complete bipartite single-join layer can go
	// out entirely in one round.
	s := &graph.Structure{Tables: []string{"A", "B"}, Preds: []graph.QPred{{A: 0, B: 1}}}
	g := graph.MustNewGraph(s, []int{3, 3})
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			g.AddEdge(0, a, b, 0.5)
		}
	}
	batch := parallelBatch(g, order(g))
	if len(batch) != 9 {
		t.Fatalf("single-predicate batch = %d, want all 9", len(batch))
	}
}

func TestParallelBatchStopsAtConflict(t *testing.T) {
	// Single component where edge 0 (a0-b0) conflicts with edge 4
	// (b0-c0): the prefix for that component must stop before 4 if 0
	// was accepted first.
	g := buildChain([]int{1, 1, 1}, 1, nil)
	// Edges: 0 = a0-b0, 1 = b0-c0; they conflict (same candidate).
	batch := parallelBatch(g, []int{0, 1})
	if len(batch) != 1 || batch[0] != 0 {
		t.Fatalf("batch = %v, want [0]", batch)
	}
}

func TestParallelBatchComponentsIndependent(t *testing.T) {
	// Two disconnected single-chain components: both first edges can be
	// asked together even though each conflicts with its own successor.
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{2, 2, 2})
	g.AddEdge(0, 0, 0, 0.5) // comp 1
	g.AddEdge(1, 0, 0, 0.5) // comp 1
	g.AddEdge(0, 1, 1, 0.5) // comp 2
	g.AddEdge(1, 1, 1, 0.5) // comp 2
	batch := parallelBatch(g, []int{0, 1, 2, 3})
	if len(batch) != 2 {
		t.Fatalf("batch = %v, want one edge per component", batch)
	}
}

func TestParallelBatchRespectsOrderGreed(t *testing.T) {
	// Highest-priority edge must always be included.
	g := buildChain([]int{2, 2, 2}, 1, nil)
	batch := parallelBatch(g, []int{7, 6, 5, 4, 3, 2, 1, 0})
	if len(batch) == 0 || batch[0] != 7 {
		t.Fatalf("batch = %v, want it to start with edge 7", batch)
	}
}

func TestSerialBatch(t *testing.T) {
	g := buildChain([]int{2, 2, 2}, 1, nil)
	b := SerialBatch(g, order(g))
	if len(b) != 1 || b[0] != 0 {
		t.Fatalf("serial batch = %v", b)
	}
	g.SetColor(0, graph.Blue)
	b = SerialBatch(g, order(g))
	if len(b) != 1 || b[0] != 1 {
		t.Fatalf("serial batch after coloring = %v", b)
	}
	for e := 0; e < g.NumEdges(); e++ {
		g.SetColor(e, graph.Red)
	}
	if b = SerialBatch(g, order(g)); b != nil {
		t.Fatalf("serial batch on finished graph = %v", b)
	}
}

func TestParallelBatchEmptyWhenDone(t *testing.T) {
	g := buildChain([]int{1, 1, 1}, 1, nil)
	g.SetColor(0, graph.Red)
	g.SetColor(1, graph.Red)
	if batch := parallelBatch(g, order(g)); len(batch) != 0 {
		t.Fatalf("batch on finished graph = %v", batch)
	}
}

// TestRoundProgress: repeatedly scheduling and coloring terminates and
// colors every valid edge.
func TestRoundProgress(t *testing.T) {
	r := stats.NewRNG(17)
	for trial := 0; trial < 30; trial++ {
		g := buildChain([]int{2, 3, 2}, 0.9, r)
		rounds := 0
		for {
			batch := parallelBatch(g, order(g))
			if len(batch) == 0 {
				break
			}
			rounds++
			if rounds > 100 {
				t.Fatal("scheduler does not terminate")
			}
			for _, e := range batch {
				if r.Bool(0.5) {
					g.SetColor(e, graph.Blue)
				} else {
					g.SetColor(e, graph.Red)
				}
			}
		}
		if left := g.ValidUncolored(); len(left) != 0 {
			t.Fatalf("trial %d: %d valid edges left unasked", trial, len(left))
		}
	}
}

func TestParallelBatchScoredDefersVictims(t *testing.T) {
	// b0 has a cheap gate on pred 1 (high score) and expensive victims
	// on pred 0 (low score): the scored batch asks the gate first and
	// defers the victims to a later round.
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{3, 1, 1})
	v0 := g.AddEdge(0, 0, 0, 0.5)
	v1 := g.AddEdge(0, 1, 0, 0.5)
	v2 := g.AddEdge(0, 2, 0, 0.5)
	gate := g.AddEdge(1, 0, 0, 0.3)
	order := []int{gate, v0, v1, v2}
	score := make([]float64, g.NumEdges())
	score[gate], score[v0], score[v1], score[v2] = 10, 1, 1, 1
	batch := ParallelBatchScored(g, order, score)
	if len(batch) != 1 || batch[0] != gate {
		t.Fatalf("scored batch = %v, want just the gate %d", batch, gate)
	}
	// Without scores the same-value gates/victims rule still defers the
	// victims because the gate ranks first at vertex b0.
	batch = parallelBatch(g, order)
	if len(batch) != 1 || batch[0] != gate {
		t.Fatalf("unscored batch = %v, want just the gate", batch)
	}
}

func TestParallelBatchScoredPacksCoequalGates(t *testing.T) {
	// Two disjoint tuples with near-equal scores on different preds can
	// go out together.
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{2, 2, 2})
	e0 := g.AddEdge(0, 0, 0, 0.5)   // chain 1 gate (pred 0)
	mid0 := g.AddEdge(1, 0, 0, 0.5) // chain 1 victim
	mid1 := g.AddEdge(0, 1, 1, 0.5) // chain 2 victim
	e1 := g.AddEdge(1, 1, 1, 0.5)   // chain 2 gate (pred 1)
	order := []int{e0, e1, mid0, mid1}
	score := make([]float64, g.NumEdges())
	score[e0], score[e1], score[mid0], score[mid1] = 5, 4.5, 1, 1
	batch := ParallelBatchScored(g, order, score)
	if len(batch) != 2 || batch[0] != e0 || batch[1] != e1 {
		t.Fatalf("batch = %v, want both gates [%d %d]", batch, e0, e1)
	}
}
