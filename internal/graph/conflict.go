package graph

// The conflict test of the latency scheduler (§5.2) on tree-shaped
// structures, answered from the cover facts validity.go maintains.
//
// Two valid edges a, b on different predicates share a candidate iff
// the tuples along the unique query-tree path between their predicates
// can be chosen consistently. Validity already says that each edge's
// far endpoint covers everything beyond it and that its near endpoint
// covers every subtree except the edge's own — the subtrees of a tree
// are independent, so what remains is the path:
//
//   - predicates sharing a table: the two near endpoints are tuples of
//     that table and must be the same tuple. Nothing else is needed —
//     a's validity makes the tuple cover b's side, b's validity a's.
//   - otherwise: a walk from a's near endpoint to b's over non-red
//     edges of the path predicates, through tuples that cover every
//     subtree hanging off the path (the two path slots are exempt: the
//     walk itself supplies them).
//
// Cyclic structures have no such decomposition and keep the
// backtracking search (SameCandidate), as their validity and cut
// losses do.

// coversOffPath reports whether v's cover facts hold at every slot but
// the two given ones (distinct slots of v).
func (g *Graph) coversOffPath(v, s1, s2 int) bool {
	n := g.cs.falseCount[v]
	if n == 0 {
		return true
	}
	first, _ := g.firstList(v)
	if !g.cs.cover[first+s1] {
		n--
	}
	if !g.cs.cover[first+s2] {
		n--
	}
	return n == 0
}

// walkItem is one pending tuple of a walk: the vertex and the slot it
// was entered through.
type walkItem struct{ v, at int }

// walkScratch is the reusable state of a walk: a visited stamp per
// vertex (a tuple is always entered through the same slot, so one stamp
// per walk suffices) and the pending stack.
type walkScratch struct {
	stamp []int
	epoch int
	stack []walkItem
}

// begin starts a new walk over a graph of n vertices.
func (w *walkScratch) begin(n int) {
	if len(w.stamp) < n {
		w.stamp = make([]int, n)
		w.epoch = 0
	}
	w.epoch++
	w.stack = w.stack[:0]
}

// visit stamps v and reports whether this walk had not seen it yet.
func (w *walkScratch) visit(v int) bool {
	if w.stamp[v] == w.epoch {
		return false
	}
	w.stamp[v] = w.epoch
	return true
}

// ConflictIndex answers "does this edge share a candidate with any
// edge of a set?" for the latency scheduler, which grows the set one
// accepted task at a time. On tree-shaped structures it keeps a count
// of set edges per (tuple, predicate) and walks outward from the
// queried edge's endpoints along the paths described above, stopping at
// the first tuple that carries a set edge on a predicate leading away
// from the query: O(path neighbourhood) per test instead of one search
// per set member. Cyclic structures fall back to pairwise SameCandidate
// within the edge's component.
//
// Every edge passed to Add or Conflicts must be valid (IsValid) under
// the graph's current colors, and the graph must not change between
// Reset and the last test. The zero value is ready for Reset; one index
// may be reused across graphs.
type ConflictIndex struct {
	g *Graph
	// count[v*nPreds+p] is the number of set edges at tuple v on
	// predicate p; touched lists the non-zero keys so Reset costs
	// O(set), and predMask has bit p%64 set once predicate p has a set
	// edge, so a walk skips subtrees that hold none.
	count    []int32
	touched  []int
	predMask uint64
	walk     walkScratch

	// Cyclic fallback: set edges per component.
	compOf []int
	byComp [][]int

	// Tests and Steps count Conflicts calls and tuples visited by their
	// walks since Reset; the scheduler exports them once per batch.
	Tests, Steps int
}

// Reset empties the set and binds the index to g; a nil g just lets go
// of the previous graph, for an index that waits in a pool.
func (ci *ConflictIndex) Reset(g *Graph) {
	for _, key := range ci.touched {
		ci.count[key] = 0
	}
	ci.touched = ci.touched[:0]
	ci.predMask = 0
	ci.Tests, ci.Steps = 0, 0
	ci.g, ci.compOf = g, nil
	if g == nil {
		return
	}
	g.Revalidate()
	if !g.treeShaped {
		var nComp int
		ci.compOf, nComp = g.ComponentIndex()
		if cap(ci.byComp) < nComp {
			ci.byComp = make([][]int, nComp)
		}
		ci.byComp = ci.byComp[:nComp]
		for i := range ci.byComp {
			ci.byComp[i] = ci.byComp[i][:0]
		}
		return
	}
	if n := g.nVerts * g.nPreds; len(ci.count) < n {
		ci.count = make([]int32, n)
	}
}

// predsBeyond returns, per table and slot, the bit set (p%64) of the
// predicates that lie strictly past the slot's own predicate in the
// query tree: those a walk of the table tree reaches from the slot's far
// table without crossing back.
func (g *Graph) predsBeyond() [][]uint64 {
	beyond := make([][]uint64, len(g.S.Tables))
	var stack [][2]int // (table, predicate it was entered through)
	for t, preds := range g.predsByTable {
		beyond[t] = make([]uint64, len(preds))
		for slot, p := range preds {
			stack = append(stack[:0], [2]int{g.S.other(p, t), p})
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				u, in := top[0], top[1]
				for _, q := range g.predsByTable[u] {
					if q != in {
						beyond[t][slot] |= 1 << (q % 64)
						stack = append(stack, [2]int{g.S.other(q, u), q})
					}
				}
			}
		}
	}
	return beyond
}

// Add puts edge e into the set.
func (ci *ConflictIndex) Add(e int) {
	g := ci.g
	if !g.treeShaped {
		c := ci.compOf[e]
		ci.byComp[c] = append(ci.byComp[c], e)
		return
	}
	ed := &g.edges[e]
	ci.predMask |= 1 << (ed.Pred % 64)
	for _, v := range [2]int{ed.U, ed.V} {
		key := v*g.nPreds + ed.Pred
		if ci.count[key] == 0 {
			ci.touched = append(ci.touched, key)
		}
		ci.count[key]++
	}
}

// Conflicts reports whether e shares a candidate with some edge of the
// set: SameCandidate(x, e) for at least one member x.
func (ci *ConflictIndex) Conflicts(e int) bool {
	ci.Tests++
	g := ci.g
	if !g.treeShaped {
		for _, prev := range ci.byComp[ci.compOf[e]] {
			if g.SameCandidate(prev, e) {
				return true
			}
		}
		return false
	}
	if ci.predMask == 0 {
		return false
	}
	ed := &g.edges[e]
	w := &ci.walk
	w.begin(g.nVerts)
	// e is valid, so both endpoints cover everything but e's own slot.
	if ci.enter(ed.U, g.slotOf(ed.U, ed.Pred)) || ci.enter(ed.V, g.slotOf(ed.V, ed.Pred)) {
		return true
	}
	for len(w.stack) > 0 {
		it := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		t := g.tableOf[it.v]
		first, _ := g.firstList(it.v)
		for s, p := range g.predsByTable[t] {
			if s == it.at || g.beyond[t][s]&ci.predMask == 0 || !g.coversOffPath(it.v, it.at, s) {
				continue
			}
			for _, eID := range g.lists[first+s] {
				ne := &g.edges[eID]
				if ne.Color == Red {
					continue
				}
				next := ne.U
				if next == it.v {
					next = ne.V
				}
				if w.visit(next) && ci.enter(next, g.slotOf(next, p)) {
					return true
				}
			}
		}
	}
	return false
}

// enter arrives at tuple v through slot in: a set edge at v on any
// other predicate shares a candidate with the query (it is valid, so v
// covers the rest), otherwise v is queued for the walk to continue
// through it.
func (ci *ConflictIndex) enter(v, in int) bool {
	ci.Steps++
	g := ci.g
	preds := g.predsByTable[g.tableOf[v]]
	if len(preds) == 1 {
		return false
	}
	base := v * g.nPreds
	for s, p := range preds {
		if s != in && ci.count[base+p] > 0 {
			return true
		}
	}
	ci.walk.stack = append(ci.walk.stack, walkItem{v, in})
	return false
}
