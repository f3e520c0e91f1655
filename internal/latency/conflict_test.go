package latency

import (
	"fmt"
	"testing"

	"cdb/internal/graph"
	"cdb/internal/stats"
)

// pairwiseBatch is the scheduler as first written: the same scan and
// the same deferral rule, but every candidate is tested with
// graph.SameCandidate against each task already packed from its
// component. It is the reference the conflict index must reproduce
// element for element.
func pairwiseBatch(g *graph.Graph, order []int, score []float64) []int {
	compOf, _ := g.ComponentIndex()
	askable := func(e int) bool { return g.Edge(e).Color == graph.Unknown && g.IsValid(e) }
	type gate struct{ v, pred int }
	rankOf := map[int]int{}
	bestRank := map[gate]int{}
	for rank, e := range order {
		if _, dup := rankOf[e]; dup || !askable(e) {
			continue
		}
		rankOf[e] = rank
		ed := g.Edge(e)
		for _, v := range [2]int{ed.U, ed.V} {
			if r, ok := bestRank[gate{v, ed.Pred}]; !ok || rank < r {
				bestRank[gate{v, ed.Pred}] = rank
			}
		}
	}
	accepted := map[int][]int{}
	var batch []int
scan:
	for _, e := range order {
		if !askable(e) {
			continue
		}
		ed := g.Edge(e)
		for _, v := range [2]int{ed.U, ed.V} {
			for _, q := range g.TablePreds(g.TableOf(v)) {
				r, ok := bestRank[gate{v, q}]
				if q == ed.Pred || !ok || r >= rankOf[e] {
					continue
				}
				if score != nil && !(score[order[r]] > 2*score[e]+1e-9) {
					continue
				}
				continue scan // deferred behind a more valuable gate
			}
		}
		for _, prev := range accepted[compOf[e]] {
			if g.SameCandidate(prev, e) {
				continue scan
			}
		}
		accepted[compOf[e]] = append(accepted[compOf[e]], e)
		batch = append(batch, e)
	}
	return batch
}

// randomShape builds a chain, star, random tree or (cyclic) triangle
// structure; tree-shaped ones span 3–6 tables.
func randomShape(shape string, r *stats.RNG) *graph.Structure {
	if shape == "cyclic" {
		return &graph.Structure{
			Tables: []string{"A", "B", "C"},
			Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}},
		}
	}
	n := 3 + r.Intn(4)
	s := &graph.Structure{}
	for i := 0; i < n; i++ {
		s.Tables = append(s.Tables, string(rune('A'+i)))
	}
	for i := 1; i < n; i++ {
		parent := i - 1
		switch shape {
		case "star":
			parent = 0
		case "tree":
			parent = r.Intn(i)
		}
		if r.Bool(0.5) {
			s.Preds = append(s.Preds, graph.QPred{A: parent, B: i})
		} else {
			s.Preds = append(s.Preds, graph.QPred{A: i, B: parent})
		}
	}
	return s
}

// randomInstance fills s with 2–4 tuples per table and random edges.
func randomInstance(s *graph.Structure, r *stats.RNG) *graph.Graph {
	counts := make([]int, len(s.Tables))
	for i := range counts {
		counts[i] = 2 + r.Intn(3)
	}
	g := graph.MustNewGraph(s, counts)
	density := 0.4 + 0.5*r.Float64()
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

func sameBatch(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConflictIndexMatchesPairwise drives random graphs through whole
// executions — batch, color the batch at random, batch again, so the
// incremental validity and component state is what a query sees — and
// compares every round's parallelBatch and ParallelBatchScored with the
// pairwise reference under a random priority order.
func TestConflictIndexMatchesPairwise(t *testing.T) {
	r := stats.NewRNG(52)
	shapes := []string{"chain", "star", "tree", "tree", "cyclic"}
	for trial := 0; trial < 150; trial++ {
		shape := shapes[trial%len(shapes)]
		g := randomInstance(randomShape(shape, r), r)
		for round := 0; round < 50; round++ {
			order := r.Perm(g.NumEdges())
			score := make([]float64, g.NumEdges())
			for i := range score {
				score[i] = float64(r.Intn(6)) // coarse: ties and 2x gaps both occur
			}
			ctx := fmt.Sprintf("trial %d (%s) round %d", trial, shape, round)
			if got, want := parallelBatch(g, order), pairwiseBatch(g, order, nil); !sameBatch(got, want) {
				t.Fatalf("%s: parallelBatch = %v, pairwise %v", ctx, got, want)
			}
			batch := ParallelBatchScored(g, order, score)
			if want := pairwiseBatch(g, order, score); !sameBatch(batch, want) {
				t.Fatalf("%s: ParallelBatchScored = %v, pairwise %v", ctx, batch, want)
			}
			if len(batch) == 0 {
				break
			}
			for _, e := range batch {
				if r.Bool(g.Edge(e).W) {
					g.SetColor(e, graph.Blue)
				} else {
					g.SetColor(e, graph.Red)
				}
			}
		}
	}
}

// connectedChain builds a single-component three-predicate chain in
// which every tuple has `degree` edges per incident predicate — the
// shape of a scaled similarity join, and the one where a per-pair
// conflict test costs most.
func connectedChain(n, degree int, r *stats.RNG) (*graph.Graph, []int, []float64) {
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
	order := r.Perm(g.NumEdges())
	score := make([]float64, g.NumEdges())
	for i := range score {
		score[i] = r.Float64()
	}
	return g, order, score
}

// TestScanBatchSteadyStateAllocs: once the pooled scratch is sized, a
// round's scheduling allocates the batch it returns and nothing else.
func TestScanBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	g, order, score := connectedChain(60, 3, stats.NewRNG(4))
	if n := len(g.ConnectedComponents()); n != 1 {
		t.Fatalf("connected chain has %d components", n)
	}
	if len(ParallelBatchScored(g, order, score)) == 0 {
		t.Fatal("empty batch")
	}
	allocs := testing.AllocsPerRun(20, func() { ParallelBatchScored(g, order, score) })
	if allocs > 1 {
		t.Fatalf("steady-state ParallelBatchScored allocates %v times per round, want 1 (the returned batch)", allocs)
	}
}
