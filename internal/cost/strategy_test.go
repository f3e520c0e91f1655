package cost

import (
	"testing"

	"cdb/internal/graph"
	"cdb/internal/stats"
)

// oracle colors edges on demand and remembers assignments.
type oracle struct {
	truth map[int]graph.Color
}

func newOracle(g *graph.Graph, r *stats.RNG, blueProb float64) *oracle {
	o := &oracle{truth: map[int]graph.Color{}}
	for e := 0; e < g.NumEdges(); e++ {
		if r.Bool(blueProb) {
			o.truth[e] = graph.Blue
		} else {
			o.truth[e] = graph.Red
		}
	}
	return o
}

// drive runs a strategy to completion against a perfect crowd,
// returning total tasks and rounds.
func drive(t *testing.T, g *graph.Graph, s Strategy, o *oracle) (tasks, rounds int) {
	t.Helper()
	for {
		batch := s.NextRound(g)
		if len(batch) == 0 {
			return
		}
		rounds++
		tasks += len(batch)
		if rounds > 1000 {
			t.Fatalf("%s: did not terminate", s.Name())
		}
		for _, e := range batch {
			g.SetColor(e, o.truth[e])
		}
	}
}

func buildRandomChain(r *stats.RNG, counts []int, density float64) *graph.Graph {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C", "D"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}},
	}
	g := graph.MustNewGraph(s, counts)
	for p, pd := range s.Preds {
		for a := 0; a < counts[pd.A]; a++ {
			for b := 0; b < counts[pd.B]; b++ {
				if r.Bool(density) {
					g.AddEdge(p, a, b, 0.1+0.8*r.Float64())
				}
			}
		}
	}
	return g
}

// answersMatch verifies the strategy discovered every true answer: an
// embedding all of whose edges are truth-blue must be all marked blue
// in the executed graph.
func answersMatch(g *graph.Graph, o *oracle) bool {
	ok := true
	g.EnumerateEmbeddings(nil, func(e graph.Edge) bool { return o.truth[e.ID] == graph.Blue },
		func(_, edges []int) bool {
			for _, e := range edges {
				if g.Edge(e).Color != graph.Blue {
					ok = false
					return false
				}
			}
			return true
		})
	return ok
}

func TestExpectationFindsAllAnswers(t *testing.T) {
	r := stats.NewRNG(101)
	for trial := 0; trial < 25; trial++ {
		g := buildRandomChain(r, []int{3, 3, 3, 3}, 0.6)
		o := newOracle(g, r, 0.5)
		tasks, _ := drive(t, g, &Expectation{}, o)
		if !answersMatch(g, o) {
			t.Fatalf("trial %d: expectation strategy missed answers", trial)
		}
		if tasks > g.NumEdges() {
			t.Fatalf("trial %d: asked %d tasks for %d edges", trial, tasks, g.NumEdges())
		}
	}
}

func TestExpectationSavesTasks(t *testing.T) {
	// On a graph with a clear bottleneck, expectation-based selection
	// must ask fewer tasks than the total edge count.
	r := stats.NewRNG(202)
	var saved int
	for trial := 0; trial < 20; trial++ {
		g := buildRandomChain(r, []int{4, 4, 4, 4}, 0.5)
		o := newOracle(g, r, 0.3) // mostly red: heavy pruning available
		tasks, _ := drive(t, g, &Expectation{}, o)
		if tasks < g.NumEdges() {
			saved++
		}
	}
	if saved < 15 {
		t.Fatalf("expectation saved tasks in only %d/20 trials", saved)
	}
}

func TestMinCutSamplingFindsAllAnswers(t *testing.T) {
	r := stats.NewRNG(303)
	for trial := 0; trial < 10; trial++ {
		g := buildRandomChain(r, []int{3, 3, 3, 3}, 0.6)
		o := newOracle(g, r, 0.5)
		s := NewMinCutSampling(20, stats.NewRNG(uint64(trial)))
		drive(t, g, s, o)
		if !answersMatch(g, o) {
			t.Fatalf("trial %d: mincut sampling missed answers", trial)
		}
	}
}

func TestMinCutSamplingDefaultSamples(t *testing.T) {
	s := NewMinCutSampling(0, stats.NewRNG(1))
	if s.Samples != 100 {
		t.Fatalf("default samples = %d, want 100", s.Samples)
	}
	if s.Name() != "MinCut" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestBudgetPrefersLikelyCandidates(t *testing.T) {
	// Two disjoint chains: one with weight 0.9 edges, one with 0.2.
	// With budget 2 the strategy must spend on the likely chain.
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{2, 2, 2})
	hi1 := g.AddEdge(0, 0, 0, 0.9)
	hi2 := g.AddEdge(1, 0, 0, 0.9)
	g.AddEdge(0, 1, 1, 0.2)
	g.AddEdge(1, 1, 1, 0.2)
	b := &Budget{}
	batch := b.NextRound(g)
	if len(batch) != 2 {
		t.Fatalf("batch = %v", batch)
	}
	got := map[int]bool{batch[0]: true, batch[1]: true}
	if !got[hi1] || !got[hi2] {
		t.Fatalf("budget picked %v, want the high-probability chain %d,%d", batch, hi1, hi2)
	}
}

func TestBudgetFindsAnswersEfficiently(t *testing.T) {
	// All edges truth-blue on the likely chain: the first round, two
	// tasks, asks exactly it and finds its answer.
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{2, 2, 2})
	e0 := g.AddEdge(0, 0, 0, 0.9)
	e1 := g.AddEdge(1, 0, 0, 0.9)
	g.AddEdge(0, 1, 1, 0.3)
	g.AddEdge(1, 1, 1, 0.3)
	o := &oracle{truth: map[int]graph.Color{e0: graph.Blue, e1: graph.Blue, 2: graph.Red, 3: graph.Red}}
	batch := (&Budget{}).NextRound(g)
	for _, e := range batch {
		g.SetColor(e, o.truth[e])
	}
	if len(batch) != 2 || len(g.Answers()) != 1 {
		t.Fatalf("first round %v found %d answers, want 1 within 2 tasks", batch, len(g.Answers()))
	}
}

func TestStrategyFlush(t *testing.T) {
	r := stats.NewRNG(505)
	g := buildRandomChain(r, []int{3, 3, 3, 3}, 0.7)
	e := &Expectation{}
	flush := e.Flush(g)
	if len(flush) != len(g.ValidUncolored()) {
		t.Fatalf("flush = %d edges, want all %d valid uncolored", len(flush), len(g.ValidUncolored()))
	}
	m := NewMinCutSampling(5, stats.NewRNG(1))
	if len(m.Flush(g)) != len(flush) {
		t.Fatal("mincut flush should also return all valid uncolored edges")
	}
}

func TestExpectationSerialMode(t *testing.T) {
	r := stats.NewRNG(606)
	g := buildRandomChain(r, []int{2, 2, 2, 2}, 0.8)
	s := &Expectation{Serial: true}
	batch := s.NextRound(g)
	if len(batch) != 1 {
		t.Fatalf("serial batch = %v", batch)
	}
}
