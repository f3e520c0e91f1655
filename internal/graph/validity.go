package graph

// Validity maintenance (Definition 3). An edge is valid iff it appears
// in at least one candidate: an embedding that assigns one tuple per
// table such that every predicate's tuple pair is a non-red edge.
//
// For tree-shaped query structures we maintain directional cover
// facts: the fact of (v, slot) means "tuple v can be extended to satisfy
// the entire subtree of the query tree that hangs beyond the slot-th
// predicate of v's table". Facts are stored flat, one per bundle and at
// that bundle's index (VertexBundles, slotLists, BundleIndex). The
// fact dependency graph is acyclic (it follows directed query-tree
// edges), so an optimistic initialization followed by
// false-propagation computes the unique fixpoint. An edge
// e=(u,v) on predicate p is then valid iff it is non-red, u covers all
// its predicates except p, and v covers all its predicates except p.
//
// One propagation computes that fixpoint for three callers: the full
// rebuild seeds it with the facts no edge supports, a crowd Red answer
// withdraws one edge's support and keeps the result, and CutLoss
// withdraws an uncolored bundle's, counts what the cut would invalidate
// and rolls back (Eq. 1). False-fact propagation is confluent, so the
// order in which facts are withdrawn never changes where it lands.
//
// Cyclic structures fall back to per-edge backtracking (correct,
// slower); the planner normally rewrites cycles away first
// (BreakCycles), matching §5.1.1.
type coverFacts struct {
	cover      []bool  // per bundle: its vertex can cover the subtree beyond its pred
	support    []int32 // supporting-edge counters for cover facts, indexed like cover
	falseCount []int32 // number of false cover facts per vertex

	// work holds the facts whose support reached zero, not yet
	// propagated. A fact is queued at most once per propagation (its
	// support falls to zero once), so the stack is sized once to the
	// bundle count and never grows.
	work []fact

	// A hypothetical cut journals every change for rollback and counts
	// the valid uncolored edges it invalidates; the rebuild and a Red
	// answer keep their changes and do neither.
	cutting bool
	journal []journalEntry
	loss    int
}

// fact identifies one directional cover fact: vertex v's coverage of
// the query subtree beyond one of its incident predicates, k being that
// bundle's index in the flat fact arrays.
type fact struct{ v, k int32 }

// journalEntry records one change of a hypothetical cut for rollback:
// cover[k] turned false at vertex v (v ≥ 0), or, marked by v,
// support[k] decremented or valid[k] cleared.
type journalEntry struct{ k, v int32 }

const (
	decrementedSupport int32 = -1 - iota
	clearedValid
)

// coversAllExcept reports whether vertex v's cover facts hold for
// every incident predicate slot except the one whose fact is skip (-1
// means all slots).
func (cs *coverFacts) coversAllExcept(v, skip int) bool {
	switch cs.falseCount[v] {
	case 0:
		return true
	case 1:
		return skip >= 0 && !cs.cover[skip]
	default:
		return false
	}
}

// farFacts returns slotLists for the far side of list q of vertex v,
// whose slot-0 list is first: an edge of q supports fact c + w*n at its
// other endpoint w.
func (g *Graph) farFacts(v, first, q int) (c, n int) {
	t := g.tableOf[v]
	pred := g.predsByTable[t][q-first]
	return g.slotLists(g.S.other(pred, t), pred)
}

// Revalidate recomputes edge validity from the current colors. It is
// cheap to call repeatedly: a no-op while the graph is unchanged.
func (g *Graph) Revalidate() {
	if !g.dirty {
		return
	}
	g.dirty = false
	if g.treeShaped {
		g.revalidateTree()
	} else {
		g.revalidateBacktrack()
	}
}

// IsValid reports whether edge id is currently contained in some
// candidate. Red edges are never valid.
func (g *Graph) IsValid(id int) bool {
	g.Revalidate()
	return g.valid[id]
}

// ValidUncolored returns the ids of edges that still need to be asked:
// valid and not yet colored.
func (g *Graph) ValidUncolored() []int {
	return g.ValidUncoloredInto(nil)
}

// ValidUncoloredInto appends the valid uncolored edge ids to buf[:0]
// and returns it, letting hot paths reuse one buffer across rounds
// instead of allocating per call.
func (g *Graph) ValidUncoloredInto(buf []int) []int {
	g.Revalidate()
	buf = buf[:0]
	for i := range g.edges {
		if g.edges[i].Color == Unknown && g.valid[i] {
			buf = append(buf, i)
		}
	}
	return buf
}

// CountValidUncolored returns len(ValidUncolored()) without
// allocating; the tracer records it per round as the "edges remaining"
// gauge of query progress.
func (g *Graph) CountValidUncolored() int {
	g.Revalidate()
	n := 0
	for i := range g.edges {
		if g.edges[i].Color == Unknown && g.valid[i] {
			n++
		}
	}
	return n
}

// noteColorValidity routes a color transition to the validity state.
// On tree-shaped graphs with current cover facts the steady-state
// crowd transitions are absorbed in place — Unknown→Blue changes no
// fact (validity only distinguishes red from non-red), Unknown→Red
// withdraws a single edge's support and propagates — so a round that
// colored k edges costs O(affected region), not O(E); the result is the
// fixpoint a rebuild would compute (enforced by
// TestIncrementalValidityMatchesRebuild). Every other transition
// (un-coloring, blue→red repairs, or any change while a full rebuild is
// already pending) falls back to the dirty flag.
func (g *Graph) noteColorValidity(id int, old, c Color) {
	if !g.dirty && g.treeShaped && old == Unknown &&
		len(g.valid) == len(g.edges) && len(g.cs.falseCount) == g.nVerts {
		if c == Red {
			g.valid[id] = false
			g.withdraw(id)
			g.propagate()
		}
		return
	}
	g.dirty = true
}

// revalidateTree rebuilds facts and validity from the colors: every
// fact starts true, supported by the non-red edges of its list, and
// every non-red edge valid; the facts with no support seed the
// propagation.
func (g *Graph) revalidateTree() {
	cs := &g.cs
	if len(cs.falseCount) != g.nVerts {
		nb := g.NumBundles()
		cs.cover = make([]bool, nb)
		cs.support = make([]int32, nb)
		cs.falseCount = make([]int32, g.nVerts)
		cs.work = make([]fact, 0, nb)
	}
	if len(g.valid) != len(g.edges) {
		g.valid = make([]bool, len(g.edges))
	}
	for i := range g.edges {
		g.valid[i] = g.edges[i].Color != Red
	}
	clear(cs.falseCount)
	for v := 0; v < g.nVerts; v++ {
		first, slots := g.VertexBundles(v)
		for k := first; k < first+slots; k++ {
			cs.cover[k] = true
			cnt := int32(0)
			for _, eID := range g.list(k) {
				if g.edges[eID].Color != Red {
					cnt++
				}
			}
			cs.support[k] = cnt
			if cnt == 0 {
				cs.work = append(cs.work, fact{int32(v), int32(k)})
			}
		}
	}
	g.propagate()
}

// withdraw takes edge id's support away from the facts of its slot at
// both endpoints. An edge supports one endpoint's fact only while the
// other endpoint covers everything beyond it (the invariant propagate
// maintains), so only live contributions are removed.
func (g *Graph) withdraw(id int) {
	e := &g.edges[id]
	ku, kv := g.edgeBundles(e)
	if g.cs.coversAllExcept(int(e.U), ku) {
		g.unsupport(int(e.V), kv)
	}
	if g.cs.coversAllExcept(int(e.V), kv) {
		g.unsupport(int(e.U), ku)
	}
}

// unsupport removes one supporting edge from fact k of vertex w and
// queues the fact when that was its last.
func (g *Graph) unsupport(w, k int) {
	cs := &g.cs
	cs.support[k]--
	if cs.cutting {
		cs.journal = append(cs.journal, journalEntry{k: int32(k), v: decrementedSupport})
	}
	if cs.support[k] == 0 && cs.cover[k] {
		cs.work = append(cs.work, fact{int32(w), int32(k)})
	}
}

// propagate turns the queued facts false, and every fact whose support
// that exhausts, until the fixpoint. It is the one place a cover fact
// turns false.
func (g *Graph) propagate() {
	cs := &g.cs
	for len(cs.work) > 0 {
		f := cs.work[len(cs.work)-1]
		cs.work = cs.work[:len(cs.work)-1]
		if !cs.cover[f.k] {
			continue
		}
		cs.cover[f.k] = false
		cs.falseCount[f.v]++
		if cs.cutting {
			cs.journal = append(cs.journal, journalEntry{k: f.k, v: f.v})
		}
		v, k := int(f.v), int(f.k)
		first, slots := g.VertexBundles(v)
		// v stops supporting neighbor facts through every slot q where
		// coversAllExcept(v, q) just flipped from true to false.
		switch cs.falseCount[v] {
		case 1:
			// Previously covered everything: coversAllExcept flipped for
			// every slot except the newly false one.
			for q := first; q < first+slots; q++ {
				if q != k {
					g.dropList(v, first, q)
				}
			}
		case 2:
			// Previously exactly one false slot f0: coversAllExcept was
			// true only for q==f0; it flips there now.
			for q := first; q < first+slots; q++ {
				if q != k && !cs.cover[q] {
					g.dropList(v, first, q)
					break
				}
			}
		default:
			// Already covered nothing; no supports to drop.
		}
	}
}

// dropList applies coversAllExcept(v, q) turning false: every non-red
// edge of v's list q leaves its last candidate and stops supporting the
// fact at its far endpoint. A hypothetical cut counts each valid
// uncolored edge it invalidates once (an asked, blue edge saves no
// task); the cut bundle itself is never reached, since a cut only
// falsifies facts that look back across the cut predicate.
func (g *Graph) dropList(v, first, q int) {
	cs := &g.cs
	c, n := g.farFacts(v, first, q)
	for _, eID := range g.list(q) {
		e := &g.edges[eID]
		if e.Color == Red {
			continue
		}
		if g.valid[eID] {
			g.valid[eID] = false
			if cs.cutting {
				cs.journal = append(cs.journal, journalEntry{k: eID, v: clearedValid})
				if e.Color == Unknown {
					cs.loss++
				}
			}
		}
		w := int(e.U)
		if w == v {
			w = int(e.V)
		}
		g.unsupport(w, c+w*n)
	}
}

// revalidateBacktrack is the general fallback: per-edge existence
// check by backtracking embedding search.
func (g *Graph) revalidateBacktrack() {
	if len(g.valid) != len(g.edges) {
		g.valid = make([]bool, len(g.edges))
	}
	for i, e := range g.edges {
		if e.Color == Red {
			g.valid[i] = false
			continue
		}
		g.valid[i] = g.existsCandidateWithPins([]int{i})
	}
}

// CutLoss computes how many currently-valid uncolored edges (excluding
// the cut bundle itself) would become invalid if all *uncolored* edges
// incident to vertex v on predicate pred were colored Red. This is the
// α / β quantity of the pruning expectation (Eq. 1). It also returns
// the bundle size x (number of uncolored edges in the bundle). Blue
// edges are left in place: if the bundle contains a blue edge the
// disconnection probability is zero anyway and the caller discounts
// the term. The graph state is unchanged on return.
func (g *Graph) CutLoss(v, pred int) (loss, bundle int) {
	g.Revalidate()
	if !g.treeShaped {
		return g.cutLossBrute(v, pred)
	}
	slot := g.checkedSlotOf(v, pred)
	if slot < 0 {
		return 0, 0
	}
	cs := &g.cs
	cs.cutting, cs.loss = true, 0
	first, _ := g.VertexBundles(v)
	for _, eID := range g.list(first + slot) {
		if g.edges[eID].Color == Unknown {
			bundle++
			g.withdraw(int(eID))
		}
	}
	g.propagate()
	for i := len(cs.journal) - 1; i >= 0; i-- {
		switch j := cs.journal[i]; j.v {
		case decrementedSupport:
			cs.support[j.k]++
		case clearedValid:
			g.valid[j.k] = true
		default:
			cs.cover[j.k] = true
			cs.falseCount[j.v]--
		}
	}
	cs.cutting, cs.journal = false, cs.journal[:0]
	return cs.loss, bundle
}

// cutLossBrute recomputes validity on a temporarily mutated copy; used
// only for cyclic structures.
func (g *Graph) cutLossBrute(v, pred int) (loss, bundle int) {
	slot := g.checkedSlotOf(v, pred)
	if slot < 0 {
		return 0, 0
	}
	var flipped []int
	for _, eID := range g.EdgesAt(v, pred) {
		if g.edges[eID].Color == Unknown {
			flipped = append(flipped, int(eID))
		}
	}
	bundle = len(flipped)
	if bundle == 0 {
		return 0, 0
	}
	before := append([]bool(nil), g.valid...)
	for _, eID := range flipped {
		g.edges[eID].Color = Red
	}
	g.dirty = true
	g.Revalidate()
	flippedSet := map[int]bool{}
	for _, eID := range flipped {
		flippedSet[eID] = true
	}
	for i := range g.valid {
		if before[i] && !g.valid[i] && !flippedSet[i] && g.edges[i].Color == Unknown {
			loss++
		}
	}
	for _, eID := range flipped {
		g.edges[eID].Color = Unknown
	}
	g.dirty = true
	g.Revalidate()
	return loss, bundle
}
