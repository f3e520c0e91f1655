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

// PredsOf returns the indices of predicates incident to table t.
func (s *Structure) PredsOf(t int) []int { return s.predsOf(t) }

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

// Graph is the instantiated query graph over concrete data.
type Graph struct {
	S       *Structure
	counts  []int // tuples per table
	base    []int // vertex id offset per table
	tableOf []int // table index per vertex id
	nVerts  int

	edges []Edge
	// lists holds every (vertex, slot) adjacency list in vertex order:
	// table t's row r lists the edge ids on the k-th predicate of t (k
	// indexes predsOf(t)) at lists[listBase[t] + r*len(predsOf(t)) + k].
	// The cover facts of validity.go are indexed the same way.
	lists    [][]int
	listBase []int
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

	// Color journal: every effective SetColor is appended, so a consumer
	// that remembers the length it last saw (the cost engine, the
	// closure) knows whether, and by what, the coloring has changed.
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
	nLists := 0
	for t, c := range counts {
		g.listBase[t] = nLists
		nLists += c * len(g.predsByTable[t])
	}
	g.lists = make([][]int, nLists)
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

// firstList returns the index in g.lists of vertex v's slot-0 list and
// the number of slots v has.
func (g *Graph) firstList(v int) (first, slots int) {
	t := g.tableOf[v]
	slots = len(g.predsByTable[t])
	return g.listBase[t] + (v-g.base[t])*slots, slots
}

// slotLists returns c and n such that lists[c+v*n] is the list of table
// t's vertex v on predicate pred (which must touch t): a loop that stays
// on one side of one predicate pays one multiply-add per vertex.
func (g *Graph) slotLists(t, pred int) (c, n int) {
	n = len(g.predsByTable[t])
	return g.listBase[t] - g.base[t]*n + g.slotAt(t, pred), n
}

// AddEdge adds a crowd edge on predicate pred between rowA (in the
// predicate's A table) and rowB (B table) with matching probability w.
// Returns the edge id.
func (g *Graph) AddEdge(pred, rowA, rowB int, w float64) int {
	if pred < 0 || pred >= len(g.S.Preds) {
		panic(fmt.Sprintf("graph: predicate %d out of range", pred))
	}
	p := g.S.Preds[pred]
	u := g.VertexID(p.A, rowA)
	v := g.VertexID(p.B, rowB)
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, Pred: pred, U: u, V: v, W: w})
	uc, un := g.slotLists(p.A, pred)
	vc, vn := g.slotLists(p.B, pred)
	g.lists[uc+u*un] = append(g.lists[uc+u*un], id)
	g.lists[vc+v*vn] = append(g.lists[vc+v*vn], id)
	g.dirty = true
	g.compsValid = false
	return id
}

// EdgeSpec describes one edge for AddEdges, with AddEdge's arguments.
type EdgeSpec struct {
	Pred       int
	RowA, RowB int
	W          float64
}

// AddEdges adds the edges in order and returns the id of the first; the
// graph ends up exactly as after one AddEdge per spec (same ids, same
// EdgesAt order), but built in one pass: degrees are counted per
// (vertex, slot) first, so the edge array grows once and every touched
// adjacency list is carved at its exact capacity from one arena instead
// of growing edge by edge. A spec out of range panics, as in AddEdge,
// before anything is added.
func (g *Graph) AddEdges(specs []EdgeSpec) (first int) {
	return g.AddEdgesFunc(func(yield func(EdgeSpec)) {
		for _, sp := range specs {
			yield(sp)
		}
	})
}

// AddEdgesFunc is AddEdges for edges that live somewhere other than a
// slice of specs: walk is called twice, to count and then to fill, and
// must yield the same specs in the same order both times.
func (g *Graph) AddEdgesFunc(walk func(yield func(EdgeSpec))) (first int) {
	first = len(g.edges)
	n := 0
	deg := make([]int32, len(g.lists)) // new edges per (vertex, slot), indexed like g.lists
	walk(func(sp EdgeSpec) {
		if sp.Pred < 0 || sp.Pred >= len(g.S.Preds) {
			panic(fmt.Sprintf("graph: predicate %d out of range", sp.Pred))
		}
		p := g.S.Preds[sp.Pred]
		uc, un := g.slotLists(p.A, sp.Pred)
		vc, vn := g.slotLists(p.B, sp.Pred)
		deg[uc+g.VertexID(p.A, sp.RowA)*un]++
		deg[vc+g.VertexID(p.B, sp.RowB)*vn]++
		n++
	})
	// Lists that already hold edges move into the arena with them.
	total := 2 * n
	for k, lst := range g.lists {
		if deg[k] > 0 {
			total += len(lst)
		}
	}
	arena := make([]int, total)
	off := 0
	for k, lst := range g.lists {
		if size := len(lst) + int(deg[k]); deg[k] > 0 {
			g.lists[k] = append(arena[off:off:off+size], lst...)
			off += size
		}
	}
	if need := len(g.edges) + n; need > cap(g.edges) {
		g.edges = append(make([]Edge, 0, need), g.edges...)
	}
	walk(func(sp EdgeSpec) {
		p := g.S.Preds[sp.Pred]
		u, v := g.base[p.A]+sp.RowA, g.base[p.B]+sp.RowB
		id := len(g.edges)
		g.edges = append(g.edges, Edge{ID: id, Pred: sp.Pred, U: u, V: v, W: sp.W})
		uc, un := g.slotLists(p.A, sp.Pred)
		vc, vn := g.slotLists(p.B, sp.Pred)
		g.lists[uc+u*un] = append(g.lists[uc+u*un], id)
		g.lists[vc+v*vn] = append(g.lists[vc+v*vn], id)
	})
	if len(g.edges) != first+n {
		panic(fmt.Sprintf("graph: AddEdgesFunc walk yielded %d edges, then %d", n, len(g.edges)-first))
	}
	g.dirty = true
	g.compsValid = false
	return first
}

// Edge returns a copy of the edge with the given id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// SetColor records a crowd answer (or an inference) for an edge.
func (g *Graph) SetColor(id int, c Color) {
	old := g.edges[id].Color
	if old == c {
		return
	}
	g.edges[id].Color = c
	g.colorLog = append(g.colorLog, ColorEvent{Edge: id, Old: old, New: c})
	g.noteColorChange(old, c)
	g.noteColorValidity(id, old, c)
}

// ColorEvents returns the full journal of effective color transitions
// since graph creation, oldest first. Incremental consumers remember
// the length they last consumed and read only the suffix. The slice is
// owned by the graph; callers must not modify it.
func (g *Graph) ColorEvents() []ColorEvent { return g.colorLog }

// SetWeight updates an edge's matching probability (used when a
// requester supplies a trained probability model).
func (g *Graph) SetWeight(id int, w float64) { g.edges[id].W = w }

// TablePreds returns the predicate ids incident to table t. Unlike
// Structure.PredsOf it serves the cached list without allocating; the
// slice is shared and must not be modified.
func (g *Graph) TablePreds(t int) []int { return g.predsByTable[t] }

// EdgesAt returns the edge ids incident to vertex v on predicate pred.
// The returned slice is shared; callers must not mutate it.
func (g *Graph) EdgesAt(v, pred int) []int {
	slot := g.checkedSlotOf(v, pred)
	if slot < 0 {
		return nil
	}
	first, _ := g.firstList(v)
	return g.lists[first+slot]
}

// AllEdgesAt returns all edge ids incident to v across predicates.
func (g *Graph) AllEdgesAt(v int) []int {
	var out []int
	first, n := g.firstList(v)
	for _, lst := range g.lists[first : first+n] {
		out = append(out, lst...)
	}
	return out
}
