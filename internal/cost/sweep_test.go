package cost

import (
	"slices"
	"testing"

	"cdb/internal/graph"
	"cdb/internal/stats"
)

// restartSweep is sweep as a fixed point: walk the unrefuted
// candidates, pin the first red edge of the first one that has one,
// and walk again from the start until a walk pins nothing. It is the
// reference the one-walk sweep must agree with.
func restartSweep(g *graph.Graph, color func(int) graph.Color, need []bool) {
	keepUnrefuted := func(e graph.Edge) bool {
		return !(color(e.ID) == graph.Red && need[e.ID])
	}
	for {
		added := false
		g.EnumerateEmbeddings(nil, keepUnrefuted, func(_, edges []int) bool {
			for _, e := range edges {
				if color(e) == graph.Red {
					need[e] = true
					added = true
					return false
				}
			}
			return true
		})
		if !added {
			return
		}
	}
}

// randomSweepGraph builds a random chain, tree, star or cycle over four
// tables, with zero to two selections (a predicate to a one-tuple
// constant table) on random tables, its predicates in random order,
// random tuple counts and edge density, and a random colouring of its
// edges.
func randomSweepGraph(r *stats.RNG) (*graph.Graph, []graph.Color) {
	s := &graph.Structure{Tables: []string{"A", "B", "C", "D"}}
	switch r.Intn(4) {
	case 0: // chain
		s.Preds = []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}}
	case 1: // tree: B is an internal node
		s.Preds = []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 1, B: 3}}
	case 2: // star centred on A
		s.Preds = []graph.QPred{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}}
	default: // cycle
		s.Preds = []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}, {A: 3, B: 0}}
	}
	counts := []int{1 + r.Intn(3), 1 + r.Intn(3), 1 + r.Intn(3), 1 + r.Intn(3)}
	for sel := r.Intn(3); sel > 0; sel-- {
		s.Preds = append(s.Preds, graph.QPred{A: r.Intn(4), B: len(s.Tables)})
		s.Tables = append(s.Tables, "σ")
		counts = append(counts, 1)
	}
	// Shuffled, the predicates' index order is not the walk's order.
	perm := r.Perm(len(s.Preds))
	preds := make([]graph.QPred, len(perm))
	for i, k := range perm {
		preds[i] = s.Preds[k]
	}
	s.Preds = preds
	g := graph.MustNewGraph(s, counts)
	for p, pd := range s.Preds {
		for a := 0; a < counts[pd.A]; a++ {
			for b := 0; b < counts[pd.B]; b++ {
				if r.Bool(0.75) {
					g.AddEdge(p, a, b, 0.5)
				}
			}
		}
	}
	colors := make([]graph.Color, g.NumEdges())
	blue := r.Float64()
	for e := range colors {
		colors[e] = graph.Red
		if r.Bool(blue) {
			colors[e] = graph.Blue
		}
	}
	return g, colors
}

// TestSweepMatchesRestart: the one-walk completion sweep pins exactly
// the edges the restart-until-fixed-point loop pins, both within
// KnownColorSelect (after the star rule or the min cut) and from an
// arbitrary partial selection, on random chains, trees, stars and
// cycles with selections under random colourings.
func TestSweepMatchesRestart(t *testing.T) {
	r := stats.NewRNG(57)
	for trial := 0; trial < 400; trial++ {
		g, colors := randomSweepGraph(r)
		color := func(e int) graph.Color { return colors[e] }

		var ref knownSelect
		ref.cut(g, color)
		restartSweep(g, color, ref.need)
		var want []int
		for e, need := range ref.need {
			if need {
				want = append(want, e)
			}
		}
		if got := KnownColorSelect(g, color); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d edges): one walk selects %v, restart loop %v", trial, g.NumEdges(), got, want)
		}

		start := make([]bool, g.NumEdges())
		for e := range start {
			start[e] = r.Bool(0.2)
		}
		one, restart := slices.Clone(start), slices.Clone(start)
		sweep(g, color, one)
		restartSweep(g, color, restart)
		if !slices.Equal(one, restart) {
			t.Fatalf("trial %d: from %v one walk pins %v, restart loop %v", trial, start, one, restart)
		}
	}
}
