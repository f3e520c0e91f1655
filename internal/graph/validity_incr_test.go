package graph

import (
	"fmt"
	"slices"
	"testing"

	"cdb/internal/stats"
)

// TestIncrementalValidityMatchesRebuild drives random coloring
// sequences (including un-colorings) against the event-driven validity
// updates and compares every edge's validity to a replica graph that
// receives all colors before its first revalidation — forcing the
// from-scratch rebuild path. The two must agree exactly after every
// step.
func TestIncrementalValidityMatchesRebuild(t *testing.T) {
	for trial := 0; trial < 250; trial++ {
		seed := uint64(5000 + trial)
		g := randomGraph(stats.NewRNG(seed))
		g.Revalidate() // make the live state current so deltas engage
		r := stats.NewRNG(uint64(99 + trial))
		for step := 0; step < 25 && g.NumEdges() > 0; step++ {
			e := r.Intn(g.NumEdges())
			var c Color
			switch r.Intn(5) {
			case 0:
				c = Unknown // forces the full-rebuild fallback
			case 1, 2:
				c = Blue
			default:
				c = Red
			}
			g.SetColor(e, c)

			rep := randomGraph(stats.NewRNG(seed))
			for id := 0; id < g.NumEdges(); id++ {
				rep.SetColor(id, g.Edge(id).Color)
			}
			for id := 0; id < g.NumEdges(); id++ {
				if g.IsValid(id) != rep.IsValid(id) {
					t.Fatalf("trial %d step %d: edge %d incremental valid=%v, rebuild=%v",
						trial, step, id, g.IsValid(id), rep.IsValid(id))
				}
			}
		}
	}
}

// TestIncrementalValidityCutLossConsistent checks that cut losses
// evaluated on incrementally-maintained cover facts match a freshly
// rebuilt graph — CutLoss journals over the same state the deltas
// update in place.
func TestIncrementalValidityCutLossConsistent(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		seed := uint64(9000 + trial)
		g := randomGraph(stats.NewRNG(seed))
		g.Revalidate()
		r := stats.NewRNG(uint64(31 + trial))
		for step := 0; step < 8 && g.NumEdges() > 0; step++ {
			e := r.Intn(g.NumEdges())
			if g.Edge(e).Color == Unknown {
				if r.Bool(0.5) {
					g.SetColor(e, Blue)
				} else {
					g.SetColor(e, Red)
				}
			}
		}
		rep := randomGraph(stats.NewRNG(seed))
		for id := 0; id < g.NumEdges(); id++ {
			rep.SetColor(id, g.Edge(id).Color)
		}
		for id := 0; id < g.NumEdges(); id++ {
			ed := g.Edge(id)
			for _, v := range [2]int{ed.U, ed.V} {
				l1, b1 := g.CutLoss(v, ed.Pred)
				l2, b2 := rep.CutLoss(v, ed.Pred)
				if l1 != l2 || b1 != b2 {
					t.Fatalf("trial %d edge %d vertex %d: incremental CutLoss=(%d,%d), rebuild=(%d,%d)",
						trial, id, v, l1, b1, l2, b2)
				}
			}
		}
	}
}

// replica builds a fresh graph with g's structure, edges and colors,
// whose facts come from a rebuild.
func replica(g *Graph) *Graph {
	rep := MustNewGraph(g.S, g.counts)
	for _, e := range g.edges {
		rep.SetColor(rep.AddEdge(e.Pred, g.RowOf(e.U), g.RowOf(e.V), e.W), e.Color)
	}
	rep.Revalidate()
	return rep
}

// FuzzValidity is the guard for the one propagation behind validity,
// Red answers and hypothetical cuts. The bytes pick a tree-shaped
// structure (chain, star, tree or caterpillar), seed a dense instance
// and then spell a coloring sequence, un-colorings included, as (color,
// edge) byte pairs. After every SetColor, on the live facts:
//   - IsValid equals the embedding search on every edge;
//   - CutLoss equals cutLossBrute (on a rebuilt replica) on every
//     (vertex, predicate) bundle and leaves the fact arrays as it found
//     them;
//   - ConflictIndex.Conflicts equals the search while a random packed
//     set grows the way the latency scheduler grows a batch.
func FuzzValidity(f *testing.F) {
	f.Add([]byte{0, 3, 7, 2, 1, 2, 5, 1, 9, 0, 1, 2, 4})
	f.Add([]byte{1, 2, 9, 2, 0, 2, 3, 2, 8, 1, 0, 0, 0, 2, 12})
	f.Add([]byte{2, 5, 1, 1, 3, 2, 2, 2, 7, 0, 3, 2, 6, 1, 5})
	f.Add([]byte{3, 0, 4, 2, 4, 2, 9, 2, 14, 1, 4, 0, 9, 2, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r := stats.NewRNG(uint64(data[2]) + 1)
		g := denseGraph(shapedStructure(shapes[data[0]%4], 3+int(data[1]%4), r), r)
		g.Revalidate()
		ops := data[3:]
		if len(ops) > 48 {
			ops = ops[:48]
		}
		var ci ConflictIndex
		for i := 0; i+1 < len(ops); i += 2 {
			e := int(ops[i+1]) % g.NumEdges()
			g.SetColor(e, Color(ops[i]%3))
			ctx := fmt.Sprintf("op %d (edge %d → %v)", i/2, e, g.edges[e].Color)

			for id := 0; id < g.NumEdges(); id++ {
				if got, want := g.IsValid(id), g.existsCandidateWithPins([]int{id}); got != want {
					t.Fatalf("%s: IsValid(%d) = %v, search says %v", ctx, id, got, want)
				}
			}

			rep := replica(g)
			cover, support, falseCount, valid := slices.Clone(g.cs.cover), slices.Clone(g.cs.support), slices.Clone(g.cs.falseCount), slices.Clone(g.valid)
			for v := 0; v < g.NumVertices(); v++ {
				for _, pred := range g.predsByTable[g.TableOf(v)] {
					loss, bundle := g.CutLoss(v, pred)
					if wl, wb := rep.cutLossBrute(v, pred); loss != wl || bundle != wb {
						t.Fatalf("%s: CutLoss(%d, %d) = (%d, %d), brute (%d, %d)", ctx, v, pred, loss, bundle, wl, wb)
					}
					if !slices.Equal(cover, g.cs.cover) || !slices.Equal(support, g.cs.support) ||
						!slices.Equal(falseCount, g.cs.falseCount) || !slices.Equal(valid, g.valid) {
						t.Fatalf("%s: CutLoss(%d, %d) left the facts changed", ctx, v, pred)
					}
				}
			}

			ci.Reset(g)
			var set []int
			for _, x := range r.Perm(g.NumEdges()) {
				if !g.IsValid(x) {
					continue
				}
				want := false
				for _, y := range set {
					want = want || g.existsCandidateWithPins([]int{y, x})
				}
				if got := ci.Conflicts(x); got != want {
					t.Fatalf("%s: Conflicts(%d) = %v with set %v, search says %v", ctx, x, got, set, want)
				}
				if !want {
					ci.Add(x)
					set = append(set, x)
				}
			}
		}
	})
}
