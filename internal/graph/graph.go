// Package graph implements CDB's core contribution: the tuple-level
// graph query model (§4). Vertices are tuples (selection constants are
// modelled as single-tuple pseudo-tables, §4.2), edges are crowd tasks
// weighted by matching probability, and query answers are embeddings
// of the query structure whose every edge the crowd confirmed BLUE.
//
// The package provides:
//   - graph construction and edge coloring,
//   - validity maintenance (Definition 3: an edge is invalid if it is
//     in no candidate) via an AND-OR fact propagation over the query
//     tree, with journaled hypothetical cuts that power the
//     expectation-based cost control (Eq. 1),
//   - candidate/answer enumeration and conflict tests used by the
//     latency scheduler, and
//   - query-structure classification and the tree→chain / graph→tree
//     transforms of §5.1.1.
package graph

import "fmt"

// Color is the state of an edge: Unknown before crowdsourcing, Blue if
// the crowd confirmed the predicate holds, Red if refuted.
type Color uint8

// Edge colors.
const (
	Unknown Color = iota
	Blue
	Red
)

// String implements fmt.Stringer.
func (c Color) String() string {
	switch c {
	case Unknown:
		return "unknown"
	case Blue:
		return "blue"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("Color(%d)", int(c))
	}
}

// QPred is one predicate of the query structure, joining two tables
// identified by index into Structure.Tables. Selections appear as a
// predicate whose B side is a single-tuple constant pseudo-table.
type QPred struct {
	A, B int
	Name string // diagnostic label, e.g. "Paper.title~Citation.title"
}

// Structure is the table-level shape of a CQL query: tables are nodes,
// predicates are edges. The paper's queries are chains, stars and
// trees; cyclic structures are first rewritten by BreakCycles.
type Structure struct {
	Tables []string
	Preds  []QPred
}

// Validate checks table indices and connectivity (every table must be
// reachable through predicates; a single table with zero predicates is
// also valid).
func (s *Structure) Validate() error {
	if len(s.Tables) == 0 {
		return fmt.Errorf("graph: structure has no tables")
	}
	for i, p := range s.Preds {
		if p.A < 0 || p.A >= len(s.Tables) || p.B < 0 || p.B >= len(s.Tables) {
			return fmt.Errorf("graph: predicate %d references table out of range", i)
		}
		if p.A == p.B {
			return fmt.Errorf("graph: predicate %d is a self-join on one table instance; use separate instances", i)
		}
	}
	// Connectivity over tables.
	if len(s.Tables) > 1 {
		adj := make([][]int, len(s.Tables))
		for _, p := range s.Preds {
			adj[p.A] = append(adj[p.A], p.B)
			adj[p.B] = append(adj[p.B], p.A)
		}
		seen := make([]bool, len(s.Tables))
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		if count != len(s.Tables) {
			return fmt.Errorf("graph: query structure is disconnected")
		}
	}
	return nil
}

// predsOf returns the indices of predicates incident to table t.
func (s *Structure) predsOf(t int) []int {
	var out []int
	for i, p := range s.Preds {
		if p.A == t || p.B == t {
			out = append(out, i)
		}
	}
	return out
}

// other returns the table on the far side of predicate p from table t.
func (s *Structure) other(p, t int) int {
	if s.Preds[p].A == t {
		return s.Preds[p].B
	}
	return s.Preds[p].A
}

// Edge is one crowd task: does the predicate hold between tuple U and
// tuple V? U always belongs to Preds[Pred].A's table, V to .B's.
type Edge struct {
	ID    int
	Pred  int
	U, V  int // vertex ids
	W     float64
	Color Color
}

// edge is how the graph stores an Edge: 24 bytes, its id being its
// index in Graph.edges and every other id 32 bits wide.
type edge struct {
	W     float64
	U, V  int32
	Pred  int32
	Color Color
}

// maxIndex bounds what the graph numbers in 32 bits: vertices, bundles
// and edges, whose 2·E adjacency entries, and so every offset into
// them, must fit an int32 too.
const maxIndex = 1<<30 - 1

// Graph is the instantiated query graph over concrete data.
//
// Everything the graph keeps per (vertex, predicate) lives on one dense
// bundle index: table t's row r has one bundle per predicate incident to
// t, and its k-th (k indexing predsOf(t)) is listBase[t] + r·slots(t) + k,
// so a vertex's bundles are consecutive. BundleIndex exports the index
// to the per-statement tables of other packages.
type Graph struct {
	S       *Structure
	counts  []int // tuples per table
	base    []int // vertex id offset per table
	tableOf []int // table index per vertex id
	nVerts  int

	edges []edge
	// Adjacency in CSR form over the bundle index: bundle b's edge ids
	// are adj[off[b]:off[b+1]], ascending (edges are only ever appended,
	// so that is insertion order). The cover facts of validity.go are
	// indexed by bundle too.
	off      []int32
	adj      []int32
	listBase []int
	// sides[p] locates predicate p's bundles: vertex v of p's A table
	// (side 0) or B table (side 1) has its bundle on p at c + v·n.
	sides [][2]bundleRun
	// predsByTable caches predsOf per table; predSlot[t*nPreds+p] is
	// predicate p's slot in predsByTable[t], -1 when p does not touch t.
	predsByTable [][]int
	predSlot     []int
	nPreds       int
	// predOrder is the connected predicate order enumeration walks,
	// fixed by the structure and computed once.
	predOrder []int
	enum      enumerator // reusable enumeration scratch (enumerate.go)

	// Validity state (see validity.go).
	dirty      bool
	valid      []bool
	cs         coverFacts // cover facts + propagation scratch
	treeShaped bool       // whether S is acyclic (enables the DP)
	// beyond is the conflict test's map of the query tree (conflict.go):
	// the predicates past each (table, slot), tree-shaped structures only.
	beyond [][]uint64

	// Color journal, kept from the first NewClosure on: every effective
	// SetColor is appended, so a closure that remembers the length it
	// last saw knows whether, and by what, the coloring has changed.
	journal  bool
	colorLog []ColorEvent

	// Cached edge-component partition (components.go).
	compOf      []int   // per edge: component id, -1 for red edges
	compMembers [][]int // per component id: sorted member edge ids
	compsValid  bool    // false: the next reader rebuilds
	floodStamp  []int   // per vertex: flood epoch that last visited it
	floodEpoch  int
	floodStack  []int // reusable vertex stack for floodComponent
	floodCounts []int // sizes of the components flooded since the last carve
}

// bundleRun is slotLists' answer for one side of one predicate: that
// side's vertex v has its bundle on the predicate at c + v·n.
type bundleRun struct{ c, n int }

// ColorEvent is one journaled color transition.
type ColorEvent struct {
	Edge     int
	Old, New Color
}

// NewGraph creates an empty graph over the structure with the given
// per-table tuple counts (counts[i] rows in table S.Tables[i]).
func NewGraph(s *Structure, counts []int) (*Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(counts) != len(s.Tables) {
		return nil, fmt.Errorf("graph: %d counts for %d tables", len(counts), len(s.Tables))
	}
	g := &Graph{S: s, counts: append([]int(nil), counts...)}
	g.base = make([]int, len(counts))
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("graph: negative tuple count for table %d", i)
		}
		g.base[i] = g.nVerts
		g.nVerts += c
	}
	g.tableOf = make([]int, g.nVerts)
	for t, b := range g.base {
		for v := b; v < b+counts[t]; v++ {
			g.tableOf[v] = t
		}
	}
	g.nPreds = len(s.Preds)
	g.predsByTable = make([][]int, len(s.Tables))
	g.predSlot = make([]int, len(s.Tables)*g.nPreds)
	for i := range g.predSlot {
		g.predSlot[i] = -1
	}
	for t := range s.Tables {
		g.predsByTable[t] = s.predsOf(t)
		for slot, p := range g.predsByTable[t] {
			g.predSlot[t*g.nPreds+p] = slot
		}
	}
	g.predOrder = s.predOrder()
	g.listBase = make([]int, len(counts))
	nBundles := 0
	for t, c := range counts {
		g.listBase[t] = nBundles
		nBundles += c * len(g.predsByTable[t])
	}
	if nBundles > maxIndex || g.nVerts > maxIndex {
		return nil, fmt.Errorf("graph: %d tuples in %d (tuple, predicate) bundles exceed the 32-bit index", g.nVerts, nBundles)
	}
	g.off = make([]int32, nBundles+1)
	g.sides = make([][2]bundleRun, g.nPreds)
	for p, q := range s.Preds {
		for side, t := range [2]int{q.A, q.B} {
			c, n := g.slotLists(t, p)
			g.sides[p][side] = bundleRun{c, n}
		}
	}
	g.treeShaped = s.Kind() != Cyclic
	if g.treeShaped {
		g.beyond = g.predsBeyond()
	}
	g.dirty = true
	return g, nil
}

// MustNewGraph panics on error; for tests and static examples.
func MustNewGraph(s *Structure, counts []int) *Graph {
	g, err := NewGraph(s, counts)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns the total vertex count.
func (g *Graph) NumVertices() int { return g.nVerts }

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumTables returns the table count.
func (g *Graph) NumTables() int { return len(g.S.Tables) }

// TupleCount returns the number of tuples in table t.
func (g *Graph) TupleCount(t int) int { return g.counts[t] }

// VertexID maps (table, row) to a dense vertex id.
func (g *Graph) VertexID(tab, row int) int {
	if tab < 0 || tab >= len(g.counts) || row < 0 || row >= g.counts[tab] {
		panic(fmt.Sprintf("graph: vertex (%d,%d) out of range", tab, row))
	}
	return g.base[tab] + row
}

// TableOf returns the table index of vertex v.
func (g *Graph) TableOf(v int) int {
	if v < 0 || v >= len(g.tableOf) {
		panic(fmt.Sprintf("graph: vertex %d out of range", v))
	}
	return g.tableOf[v]
}

// RowOf returns the row index of vertex v within its table.
func (g *Graph) RowOf(v int) int { return v - g.base[g.TableOf(v)] }

// slotAt returns predicate pred's slot among table t's incident
// predicates, -1 when pred does not touch t.
func (g *Graph) slotAt(t, pred int) int { return g.predSlot[t*g.nPreds+pred] }

// slotOf is slotAt for the table of vertex v.
func (g *Graph) slotOf(v, pred int) int { return g.predSlot[g.tableOf[v]*g.nPreds+pred] }

// checkedSlotOf is slotOf for caller-supplied arguments: an unknown
// predicate reads as "not incident" (-1) like any other absent one.
func (g *Graph) checkedSlotOf(v, pred int) int {
	if pred < 0 || pred >= g.nPreds {
		return -1
	}
	return g.slotAt(g.TableOf(v), pred)
}

// VertexBundles returns vertex v's first bundle and the number of
// bundles (slots) it has: they are consecutive, one per predicate of
// TablePreds(TableOf(v)) in that order.
func (g *Graph) VertexBundles(v int) (first, slots int) {
	t := g.tableOf[v]
	slots = len(g.predsByTable[t])
	return g.listBase[t] + (v-g.base[t])*slots, slots
}

// slotLists returns c and n such that c+v*n is the bundle of table t's
// vertex v on predicate pred (which must touch t): a loop that stays on
// one side of one predicate pays one multiply-add per vertex.
func (g *Graph) slotLists(t, pred int) (c, n int) {
	n = len(g.predsByTable[t])
	return g.listBase[t] - g.base[t]*n + g.slotAt(t, pred), n
}

// edgeBundles returns the bundles of edge e's predicate at U and at V.
func (g *Graph) edgeBundles(e *edge) (bu, bv int) {
	s := &g.sides[e.Pred]
	return s[0].c + int(e.U)*s[0].n, s[1].c + int(e.V)*s[1].n
}

// list returns the edge ids of bundle b, ascending.
func (g *Graph) list(b int) []int32 { return g.adj[g.off[b]:g.off[b+1]] }

// NumBundles returns the number of (tuple, incident predicate) bundles:
// the size of every table indexed by BundleIndex.
func (g *Graph) NumBundles() int { return len(g.off) - 1 }

// BundleIndex returns the dense index in [0, NumBundles()) of vertex v's
// bundle on predicate pred, or -1 when pred does not touch v's table. A
// table another package keeps per (tuple, predicate) is sized and
// indexed by it, rather than by vertex × predicate.
func (g *Graph) BundleIndex(v, pred int) int {
	slot := g.checkedSlotOf(v, pred)
	if slot < 0 {
		return -1
	}
	first, _ := g.VertexBundles(v)
	return first + slot
}

// AddEdge adds a crowd edge on predicate pred between rowA (in the
// predicate's A table) and rowB (B table) with matching probability w.
// Returns the edge id. It is AddEdges with one spec, so it rebuilds the
// adjacency: a caller with many edges adds them in one AddEdges.
func (g *Graph) AddEdge(pred, rowA, rowB int, w float64) int {
	return g.AddEdges([]EdgeSpec{{Pred: pred, RowA: rowA, RowB: rowB, W: w}})
}

// EdgeSpec describes one edge for AddEdges, with AddEdge's arguments.
type EdgeSpec struct {
	Pred       int
	RowA, RowB int
	W          float64
}

// AddEdges adds the edges in order and returns the id of the first; the
// graph ends up exactly as after one AddEdge per spec (same ids, same
// EdgesAt order). The edge array grows once, and the adjacency is rebuilt
// once, in O(edges + bundles) for all the graph's edges. A spec out of
// range panics, as in AddEdge, before anything is added.
func (g *Graph) AddEdges(specs []EdgeSpec) (first int) {
	return g.AddEdgesFunc(func(yield func(EdgeSpec)) {
		for _, sp := range specs {
			yield(sp)
		}
	})
}

// AddEdgesFunc is AddEdges for edges that live somewhere other than a
// slice of specs: walk is called twice, to check and count and then to
// fill, and must yield the same specs in the same order both times.
func (g *Graph) AddEdgesFunc(walk func(yield func(EdgeSpec))) (first int) {
	first = len(g.edges)
	n := 0
	walk(func(sp EdgeSpec) {
		if sp.Pred < 0 || sp.Pred >= g.nPreds {
			panic(fmt.Sprintf("graph: predicate %d out of range", sp.Pred))
		}
		p := g.S.Preds[sp.Pred]
		g.VertexID(p.A, sp.RowA)
		g.VertexID(p.B, sp.RowB)
		n++
	})
	if first+n > maxIndex {
		panic(fmt.Sprintf("graph: %d edges exceed the 32-bit index", first+n))
	}
	// Grown by hand, not slices.Grow: under the race detector that
	// allocates a zeroed temporary of n records besides the new array.
	if need := first + n; need > cap(g.edges) {
		g.edges = append(make([]edge, 0, need), g.edges...)
	}
	walk(func(sp EdgeSpec) {
		p := g.S.Preds[sp.Pred]
		g.edges = append(g.edges, edge{
			W: sp.W, Pred: int32(sp.Pred),
			U: int32(g.base[p.A] + sp.RowA), V: int32(g.base[p.B] + sp.RowB),
		})
	})
	if len(g.edges) != first+n {
		panic(fmt.Sprintf("graph: AddEdgesFunc walk yielded %d edges, then %d", n, len(g.edges)-first))
	}
	g.bindAdjacency()
	g.dirty = true
	g.compsValid = false
	return first
}

// bindAdjacency rebuilds off and adj from the edge array: a count pass
// leaves off[b] at bundle b's start and a fill pass in edge-id order
// advances it to b's end, so each list comes out ascending and one
// shift by a slot restores the starts.
func (g *Graph) bindAdjacency() {
	off := g.off
	clear(off)
	for i := range g.edges {
		bu, bv := g.edgeBundles(&g.edges[i])
		off[bu+1]++
		off[bv+1]++
	}
	for b := 1; b < len(off); b++ {
		off[b] += off[b-1]
	}
	if n := 2 * len(g.edges); n > cap(g.adj) {
		g.adj = make([]int32, n)
	} else {
		g.adj = g.adj[:n]
	}
	for i := range g.edges {
		bu, bv := g.edgeBundles(&g.edges[i])
		g.adj[off[bu]], off[bu] = int32(i), off[bu]+1
		g.adj[off[bv]], off[bv] = int32(i), off[bv]+1
	}
	copy(off[1:], off)
	off[0] = 0
}

// Edge returns the edge with the given id.
func (g *Graph) Edge(id int) Edge {
	e := &g.edges[id]
	return Edge{ID: id, Pred: int(e.Pred), U: int(e.U), V: int(e.V), W: e.W, Color: e.Color}
}

// Weight, Color and Ends read one edge's fields without building the
// Edge value, which hot loops (the orderings, the round scheduler) pay
// for per edge: Edge(id).W, Edge(id).Color and Edge(id)'s U, V, Pred.
func (g *Graph) Weight(id int) float64 { return g.edges[id].W }

// Color returns Edge(id).Color; see Weight.
func (g *Graph) Color(id int) Color { return g.edges[id].Color }

// Ends returns Edge(id)'s U, V and Pred; see Weight.
func (g *Graph) Ends(id int) (u, v, pred int) {
	e := &g.edges[id]
	return int(e.U), int(e.V), int(e.Pred)
}

// EdgeBundles returns the bundles (BundleIndex) of edge id's predicate
// at its U and at its V endpoint.
func (g *Graph) EdgeBundles(id int) (bu, bv int) { return g.edgeBundles(&g.edges[id]) }

// SetColor records a crowd answer (or an inference) for an edge.
func (g *Graph) SetColor(id int, c Color) {
	old := g.edges[id].Color
	if old == c {
		return
	}
	g.edges[id].Color = c
	if g.journal {
		g.colorLog = append(g.colorLog, ColorEvent{Edge: id, Old: old, New: c})
	}
	g.noteColorChange(old, c)
	g.noteColorValidity(id, old, c)
}

// ColorEvents returns the journal of effective color transitions since
// the first NewClosure on g, oldest first; it is empty before one.
// Incremental consumers remember the length they last consumed and read
// only the suffix. The slice is owned by the graph; callers must not
// modify it.
func (g *Graph) ColorEvents() []ColorEvent { return g.colorLog }

// SetWeight updates an edge's matching probability (used when a
// requester supplies a trained probability model).
func (g *Graph) SetWeight(id int, w float64) { g.edges[id].W = w }

// TablePreds returns the predicate ids incident to table t. Unlike
// Structure.PredsOf it serves the cached list without allocating; the
// slice is shared and must not be modified.
func (g *Graph) TablePreds(t int) []int { return g.predsByTable[t] }

// EdgesAt returns the edge ids incident to vertex v on predicate pred,
// ascending. The returned slice is shared; callers must not mutate it.
func (g *Graph) EdgesAt(v, pred int) []int32 {
	b := g.BundleIndex(v, pred)
	if b < 0 {
		return nil
	}
	return g.list(b)
}

// AllEdgesAt returns all edge ids incident to v across predicates, its
// bundles in slot order: one contiguous view of the adjacency, shared
// like EdgesAt's.
func (g *Graph) AllEdgesAt(v int) []int32 {
	first, n := g.VertexBundles(v)
	return g.adj[g.off[first]:g.off[first+n]]
}
