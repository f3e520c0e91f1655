package graph

// The conflict test of the latency scheduler (§5.2) on tree-shaped
// structures, answered from the cover facts validity.go maintains.
//
// Two edges a, b on different predicates share a candidate iff both
// are valid and the tuples along the unique query-tree path between
// their predicates can be chosen consistently. Validity already says
// that each edge's far endpoint covers everything beyond it and that
// its near endpoint covers every subtree except the edge's own — the
// subtrees of a tree are independent, so what remains is the path:
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
// backtracking search, as their validity and cut losses do.

// pathStep is one hop of a query-tree path: cross a predicate, leaving
// a tuple through its slot out and entering the next tuple at its slot
// in.
type pathStep struct{ out, in int }

// predPath is the query-tree path from one predicate to another:
// which endpoint of each is the near one (V side when true), and the
// predicates strictly between the two near tables. No steps means the
// predicates share a table.
type predPath struct {
	fromV, toV bool
	steps      []pathStep
}

// predPaths precomputes the path between every ordered predicate pair
// of an acyclic structure, indexed from*nPreds+to.
func (g *Graph) predPaths() []predPath {
	s, nP := g.S, g.nPreds
	adj := s.adjacency()
	// via[r][t] is the predicate through which t is reached when the
	// table tree is rooted at r (-1 at the root).
	via := make([][]int, len(s.Tables))
	for r := range via {
		via[r] = make([]int, len(s.Tables))
		for t := range via[r] {
			via[r][t] = -2
		}
		via[r][r] = -1
		stack := []int{r}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range adj[u] {
				if via[r][nb[0]] == -2 {
					via[r][nb[0]] = nb[1]
					stack = append(stack, nb[0])
				}
			}
		}
	}
	// tablePath lists the hops from table r to table t.
	tablePath := func(r, t int) []pathStep {
		var rev []pathStep
		for t != r {
			p := via[r][t]
			prev := s.other(p, t)
			rev = append(rev, pathStep{out: g.slotAt(prev, p), in: g.slotAt(t, p)})
			t = prev
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}
	paths := make([]predPath, nP*nP)
	for a, pa := range s.Preds {
		for b, pb := range s.Preds {
			if a == b {
				continue
			}
			// Of the four endpoint pairings the near one is the shortest:
			// every other path additionally crosses a or b.
			best := predPath{steps: tablePath(pa.A, pb.A)}
			for _, c := range [3]predPath{
				{toV: true, steps: tablePath(pa.A, pb.B)},
				{fromV: true, steps: tablePath(pa.B, pb.A)},
				{fromV: true, toV: true, steps: tablePath(pa.B, pb.B)},
			} {
				if len(c.steps) < len(best.steps) {
					best = c
				}
			}
			paths[a*nP+b] = best
		}
	}
	return paths
}

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

// walkItem is one pending tuple of a path walk: the vertex, and either
// the index of the next step to cross (sameCandidateTree) or the slot
// it was entered through (ConflictIndex).
type walkItem struct{ v, at int }

// walkScratch is the reusable state of a path walk: a visited stamp
// per vertex (a tuple is always entered through the same slot, so one
// stamp per walk suffices) and the pending stack.
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

// sameCandidateTree is SameCandidate for two edges on different
// predicates of a tree-shaped structure. It reads the graph's primary
// cover facts and uses its walk scratch, so like every other query that
// revalidates it is not safe for concurrent use.
func (g *Graph) sameCandidateTree(e1, e2 int) bool {
	g.Revalidate()
	if !g.valid[e1] || !g.valid[e2] {
		return false // in no candidate at all
	}
	a, b := &g.edges[e1], &g.edges[e2]
	pp := &g.paths[a.Pred*g.nPreds+b.Pred]
	from, to := a.U, b.U
	if pp.fromV {
		from = a.V
	}
	if pp.toV {
		to = b.V
	}
	last := len(pp.steps) - 1
	if last < 0 {
		return from == to
	}
	w := &g.walk
	w.begin(g.nVerts)
	// from covers everything but a's own slot (a is valid), so it may
	// leave through any path slot; later tuples are checked on entry.
	w.stack = append(w.stack, walkItem{from, 0})
	for len(w.stack) > 0 {
		it := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		step := pp.steps[it.at]
		first, _ := g.firstList(it.v)
		for _, eID := range g.lists[first+step.out] {
			e := &g.edges[eID]
			if e.Color == Red {
				continue
			}
			next := e.U
			if next == it.v {
				next = e.V
			}
			if it.at == last {
				// to covers everything but b's slot (b is valid).
				if next == to {
					return true
				}
				continue
			}
			if w.visit(next) && g.coversOffPath(next, step.in, pp.steps[it.at+1].out) {
				w.stack = append(w.stack, walkItem{next, it.at + 1})
			}
		}
	}
	return false
}

// ConflictIndex answers "does this edge share a candidate with any
// edge of a set?" for the latency scheduler, which grows the set one
// accepted task at a time. On tree-shaped structures it keeps a count
// of set edges per (tuple, predicate) and walks outward from the
// queried edge's endpoints exactly as sameCandidateTree walks one path,
// stopping at the first tuple that carries a set edge on a predicate
// leading away from the query: O(path neighbourhood) per test instead
// of one search per set member. Cyclic structures fall back to
// pairwise SameCandidate within the edge's component.
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
// query tree. Needs g.paths.
func (g *Graph) predsBeyond() [][]uint64 {
	beyond := make([][]uint64, len(g.S.Tables))
	for t := range beyond {
		beyond[t] = make([]uint64, len(g.predsByTable[t]))
	}
	// A predicate q is past slot (t, p) iff the path from p to q leaves
	// p through its endpoint opposite t.
	for p, pd := range g.S.Preds {
		for q := range g.S.Preds {
			if p == q {
				continue
			}
			t := pd.A // the near endpoint is V (table B): q is past (A, p)
			if !g.paths[p*g.nPreds+q].fromV {
				t = pd.B
			}
			beyond[t][g.slotAt(t, p)] |= 1 << (q % 64)
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
