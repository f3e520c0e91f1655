package cost

import (
	"cdb/internal/graph"
	"cdb/internal/maxflow"
)

// KnownColorSelect implements the optimal task selection of §5.1.1 for
// a fully known coloring: the returned edge ids are exactly the tasks
// that must be asked — edges on all-blue embeddings (they are answers
// and cannot be deduced) plus a minimum set of red edges whose
// refutation disconnects every other potential answer (Lemma 1,
// min-cut on the chain-linearized flow network; the star-join rule for
// star structures). color supplies the hypothetical color of every
// edge (sampled colorings keep real colors where known).
//
// The result is sorted and duplicate-free.
func KnownColorSelect(g *graph.Graph, color func(edgeID int) graph.Color) []int {
	var s knownSelect
	s.run(g, color)
	n := 0
	for _, need := range s.need {
		if need {
			n++
		}
	}
	out := make([]int, 0, n)
	for e, need := range s.need {
		if need {
			out = append(out, e)
		}
	}
	return out
}

// knownSelect holds KnownColorSelect's marks, dense by edge and vertex
// id, so that a caller selecting over many colorings of one graph (the
// sampler) clears them instead of building them per coloring.
type knownSelect struct {
	need     []bool // by edge: the selection
	bEdge    []bool // by edge: on some all-blue embedding
	blueNode []bool // by vertex: on some all-blue embedding
}

// run marks in s.need the edges KnownColorSelect returns.
func (s *knownSelect) run(g *graph.Graph, color func(edgeID int) graph.Color) {
	s.need = cleared(s.need, g.NumEdges())
	s.bEdge = cleared(s.bEdge, g.NumEdges())
	s.blueNode = cleared(s.blueNode, g.NumVertices())
	need := s.need

	// Edges on all-blue embeddings must be asked.
	keepBlue := func(e graph.Edge) bool { return color(e.ID) == graph.Blue }
	g.EnumerateEmbeddings(nil, keepBlue, func(assign, edges []int) bool {
		for _, v := range assign {
			s.blueNode[v] = true
		}
		for _, e := range edges {
			s.bEdge[e] = true
			need[e] = true
		}
		return true
	})

	if g.S.Kind() == graph.Star && len(g.S.Preds) >= 3 {
		starSelect(g, color, need)
	} else {
		chainCutSelect(g, color, s.blueNode, s.bEdge, need)
	}

	// Completion sweep: the chain linearization of trees and broken
	// cycles can leave candidates unrefuted (the paper's "invalid join
	// tuples" caveat) — enumerate the candidates not yet refuted by a
	// needed red edge and pin one red edge of each. Refuted candidates
	// are pruned from the walk by excluding their cut edges, so this
	// pass only visits the (few) leftovers.
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
					return false // restart: the new cut prunes others
				}
			}
			return true // all blue: already in need via bEdge
		})
		if !added {
			break
		}
	}
}

// cleared returns buf at length n, all zero, reusing its array when it
// is long enough.
func cleared[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// starSelect applies the paper's star rule: per center tuple, if it
// has a blue edge toward every other table, all of its edges must be
// asked (every candidate through it is decided edge-by-edge);
// otherwise it suffices to ask the red edges of the bluest-starved
// table with the fewest red edges.
func starSelect(g *graph.Graph, color func(int) graph.Color, need []bool) {
	// The center is the table with maximal degree.
	deg := make([]int, g.NumTables())
	for _, p := range g.S.Preds {
		deg[p.A]++
		deg[p.B]++
	}
	center := 0
	for t, d := range deg {
		if d > deg[center] {
			center = t
		}
	}
	for row := 0; row < g.TupleCount(center); row++ {
		v := g.VertexID(center, row)
		starved := -1 // predicate with zero blue edges and fewest reds
		starvedReds := 0
		covered := true
		for _, p := range g.S.PredsOf(center) {
			blue, red := 0, 0
			for _, e := range g.EdgesAt(v, p) {
				switch color(e) {
				case graph.Blue:
					blue++
				case graph.Red:
					red++
				}
			}
			if blue == 0 {
				covered = false
				if starved < 0 || red < starvedReds {
					starved, starvedReds = p, red
				}
			}
		}
		if covered {
			for _, e := range g.AllEdgesAt(v) {
				need[e] = true
			}
			continue
		}
		for _, e := range g.EdgesAt(v, starved) {
			if color(e) == graph.Red {
				need[e] = true
			}
		}
	}
}

// chainCutSelect builds the Lemma-1 flow network over the chain
// linearization of the query tree and adds the min-cut red edges to
// need. The network is undirected (each arc added in both directions):
// every non-blue chain segment between blue-path vertices (or the
// terminals) forms an s–s* path that a red cut edge must sever.
func chainCutSelect(g *graph.Graph, color func(int) graph.Color,
	blueNode, bEdge, need []bool) {

	// Cyclic join structures are first rewritten by duplicating the
	// far side of each non-tree predicate (§5.1.1); origin maps the
	// rewritten table indices back to the data tables. Acyclic
	// structures pass through with an identity mapping.
	sWalk, origin := g.S.BreakCycles()
	walk := sWalk.TreeToChain()
	if len(walk) < 2 {
		return
	}
	dataTable := func(pos int) int { return origin[walk[pos].Table] }
	// Node numbering: base and dup per (position, row); s and s* last.
	nodeID := map[[3]int]int{} // (pos, row, 0=base 1=dup)
	next := 0
	idOf := func(pos, row, kind int) int {
		key := [3]int{pos, row, kind}
		if id, ok := nodeID[key]; ok {
			return id
		}
		nodeID[key] = next
		next++
		return nodeID[key]
	}
	isBlue := func(pos, row int) bool {
		return blueNode[g.VertexID(dataTable(pos), row)]
	}
	base := func(pos, row int) int { return idOf(pos, row, 0) }
	out := func(pos, row int) int {
		if isBlue(pos, row) {
			return idOf(pos, row, 1)
		}
		return idOf(pos, row, 0)
	}
	// First pass to allocate all node ids deterministically.
	for pos := range walk {
		for row := 0; row < g.TupleCount(dataTable(pos)); row++ {
			base(pos, row)
			out(pos, row)
		}
	}
	s := next
	t := next + 1
	next += 2

	fg := maxflow.New(next)
	undirected := func(a, b int, cap int64, id int) {
		fg.AddEdge(a, b, cap, id)
		fg.AddEdge(b, a, cap, id)
	}

	last := len(walk) - 1
	for row := 0; row < g.TupleCount(dataTable(0)); row++ {
		undirected(s, base(0, row), maxflow.Inf, -1)
	}
	for row := 0; row < g.TupleCount(dataTable(last)); row++ {
		undirected(out(last, row), t, maxflow.Inf, -1)
	}
	// Shortcuts for blue-path vertices: a deviation that LEAVES the
	// blue chain at t starts at t's duplicate (right-edge side), so the
	// duplicate must be s-reachable; a non-blue prefix ARRIVING at t
	// ends at t's base (left-edge side), so the base must reach s*.
	// Terminal positions omit the side that would join the existing
	// terminal link into an uncuttable s–s* path.
	for pos := range walk {
		for row := 0; row < g.TupleCount(dataTable(pos)); row++ {
			if !isBlue(pos, row) {
				continue
			}
			if pos < last {
				undirected(s, out(pos, row), maxflow.Inf, -1)
			}
			if pos > 0 {
				undirected(base(pos, row), t, maxflow.Inf, -1)
			}
		}
	}
	// Data edges between consecutive positions. Orientation follows
	// the REWRITTEN structure (sWalk) whose predicate endpoints match
	// the walk's table indices; rows come from the data graph, whose
	// A-side endpoint is always Edge.U.
	for pos := 1; pos < len(walk); pos++ {
		pred := walk[pos].Pred
		pdW := sWalk.Preds[pred]
		prevTbl := dataTable(pos - 1)
		for row := 0; row < g.TupleCount(prevTbl); row++ {
			v := g.VertexID(prevTbl, row)
			for _, eid := range g.EdgesAt(v, pred) {
				if bEdge[eid] {
					continue // removed: replaced by the s/t shortcuts
				}
				e := g.Edge(eid)
				var rPrev, rCur int
				if walk[pos-1].Table == pdW.A {
					rPrev, rCur = g.RowOf(e.U), g.RowOf(e.V)
				} else {
					rPrev, rCur = g.RowOf(e.V), g.RowOf(e.U)
				}
				var cap int64
				switch color(eid) {
				case graph.Red:
					cap = 1
				default: // blue (non-B) edges cannot be cut
					cap = maxflow.Inf
				}
				undirected(out(pos-1, rPrev), base(pos, rCur), cap, eid)
			}
		}
	}
	_, cut := fg.MinCut(s, t)
	for _, eid := range cut {
		need[eid] = true
	}
}
