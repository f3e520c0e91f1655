package graph

import "math"

// Validity maintenance (Definition 3). An edge is valid iff it appears
// in at least one candidate: an embedding that assigns one tuple per
// table such that every predicate's tuple pair is a non-red edge.
//
// For tree-shaped query structures we maintain directional cover
// facts: the fact of (v, slot) means "tuple v can be extended to satisfy
// the entire subtree of the query tree that hangs beyond the slot-th
// predicate of v's table". Facts are stored flat, one per adjacency
// list and at that list's index in g.lists (firstList, slotLists). The
// fact dependency graph is acyclic (it follows directed query-tree
// edges), so an optimistic initialization followed by
// false-propagation computes the unique fixpoint. An edge
// e=(u,v) on predicate p is then valid iff it is non-red, u covers all
// its predicates except p, and v covers all its predicates except p.
//
// Cyclic structures fall back to per-edge backtracking (correct,
// slower); the planner normally rewrites cycles away first
// (BreakCycles), matching §5.1.1.
//
// cutState bundles the cover-fact arrays (kept current by Revalidate
// and reddenEdgeTree) with the scratch of hypothetical cuts, which
// mutate the facts temporarily and roll them back.
type cutState struct {
	cover      []bool  // per (vertex, slot): v can cover the subtree beyond that pred
	support    []int32 // supporting-edge counters for cover facts, indexed like cover
	falseCount []int32 // number of false cover facts per vertex

	epoch     int32
	edgeEpoch []int32 // scratch for hypothetical-cut dedup
	journal   []journalEntry
	work      []fact
}

// coversAllExcept reports whether vertex v's cover facts hold for
// every incident predicate slot except the one whose fact is skip (-1
// means all slots).
func (cs *cutState) coversAllExcept(v, skip int) bool {
	switch cs.falseCount[v] {
	case 0:
		return true
	case 1:
		return skip >= 0 && !cs.cover[skip]
	default:
		return false
	}
}

// edgeFacts returns the facts of edge e's own slot at U and at V.
func (g *Graph) edgeFacts(e *Edge) (ku, kv int) {
	p := g.S.Preds[e.Pred]
	uc, un := g.slotLists(p.A, e.Pred)
	vc, vn := g.slotLists(p.B, e.Pred)
	return uc + e.U*un, vc + e.V*vn
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
// removes a single edge's support and propagates — so a round that
// colored k edges costs O(affected region), not O(E). Every other
// transition (un-coloring, blue→red repairs, or any change while a
// full rebuild is already pending) falls back to the dirty flag.
func (g *Graph) noteColorValidity(id int, old, c Color) {
	if !g.dirty && g.treeShaped && old == Unknown &&
		len(g.valid) == len(g.edges) && len(g.cs.falseCount) == g.nVerts {
		if c == Blue {
			return
		}
		g.reddenEdgeTree(id)
		return
	}
	g.dirty = true
}

// reddenEdgeTree applies one Unknown→Red transition to the live cover
// facts: the removed edge stops supporting its endpoints' facts, and
// the same monotone false-propagation revalidateTree runs from scratch
// is seeded with just the affected facts, clearing edge validity along
// the way. False-fact propagation is confluent, so the state lands on
// the identical fixpoint the full rebuild would compute (enforced by
// TestIncrementalValidityMatchesRebuild).
func (g *Graph) reddenEdgeTree(id int) {
	cs := &g.cs
	e := &g.edges[id]
	g.valid[id] = false
	ku, kv := g.edgeFacts(e)
	work := g.factWork[:0]
	// The edge contributed to an endpoint's support only while the
	// other endpoint covered everything beyond it (the invariant the
	// propagation maintains), so only live contributions are removed.
	if cs.coversAllExcept(e.U, ku) {
		cs.support[kv]--
		if cs.support[kv] == 0 && cs.cover[kv] {
			work = append(work, fact{e.V, kv})
		}
	}
	if cs.coversAllExcept(e.V, kv) {
		cs.support[ku]--
		if cs.support[ku] == 0 && cs.cover[ku] {
			work = append(work, fact{e.U, ku})
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if !cs.cover[f.k] {
			continue
		}
		cs.cover[f.k] = false
		cs.falseCount[f.v]++
		first, slots := g.firstList(f.v)
		switch cs.falseCount[f.v] {
		case 1:
			for q := first; q < first+slots; q++ {
				if q != f.k {
					work = g.dropSupportInvalidate(cs, f.v, first, q, work)
				}
			}
		case 2:
			for q := first; q < first+slots; q++ {
				if q != f.k && !cs.cover[q] {
					work = g.dropSupportInvalidate(cs, f.v, first, q, work)
					break
				}
			}
		}
	}
	g.factWork = work[:0]
}

// dropSupportInvalidate is dropSupportSlot with permanent edge
// invalidation: coversAllExcept(v, q) just flipped false, so every
// non-red edge of v's list q left its last candidate.
func (g *Graph) dropSupportInvalidate(cs *cutState, v, first, q int, work []fact) []fact {
	c, n := g.farFacts(v, first, q)
	for _, eID := range g.lists[q] {
		e := &g.edges[eID]
		if e.Color == Red {
			continue
		}
		g.valid[eID] = false
		w := e.U
		if w == v {
			w = e.V
		}
		kw := c + w*n
		cs.support[kw]--
		if cs.support[kw] == 0 && cs.cover[kw] {
			work = append(work, fact{w, kw})
		}
	}
	return work
}

func (g *Graph) revalidateTree() {
	cs := &g.cs
	if len(cs.falseCount) != g.nVerts {
		cs.cover = make([]bool, len(g.lists))
		cs.support = make([]int32, len(g.lists))
		cs.falseCount = make([]int32, g.nVerts)
	}
	// Optimistic init: everything covers; supports count non-red
	// incident edges per slot. Facts with zero support are false and
	// seed the worklist.
	clear(cs.falseCount)
	work := g.factWork[:0]
	for v := 0; v < g.nVerts; v++ {
		first, slots := g.firstList(v)
		for k := first; k < first+slots; k++ {
			cs.cover[k] = true
			cnt := int32(0)
			for _, eID := range g.lists[k] {
				if g.edges[eID].Color != Red {
					cnt++
				}
			}
			cs.support[k] = cnt
			if cnt == 0 {
				work = append(work, fact{v, k})
			}
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if !cs.cover[f.k] {
			continue
		}
		cs.cover[f.k] = false
		cs.falseCount[f.v]++
		first, slots := g.firstList(f.v)
		// f.v stops supporting neighbor facts through every slot q where
		// coversAllExcept(f.v, q) just flipped from true to false.
		switch cs.falseCount[f.v] {
		case 1:
			// Previously covered everything: coversAllExcept flipped for
			// every slot except the newly false one.
			for q := first; q < first+slots; q++ {
				if q != f.k {
					work = g.dropSupportSlot(cs, f.v, first, q, work)
				}
			}
		case 2:
			// Previously exactly one false slot f0: coversAllExcept was
			// true only for q==f0; it flips there now.
			for q := first; q < first+slots; q++ {
				if q != f.k && !cs.cover[q] {
					work = g.dropSupportSlot(cs, f.v, first, q, work)
					break
				}
			}
		default:
			// Already covered nothing; no supports to drop.
		}
	}
	g.factWork = work[:0]
	// Edge validity.
	if len(g.valid) != len(g.edges) {
		g.valid = make([]bool, len(g.edges))
	}
	for i := range g.edges {
		g.valid[i] = g.edgeValidNow(i)
	}
	if len(cs.edgeEpoch) != len(g.edges) {
		cs.edgeEpoch = make([]int32, len(g.edges))
		cs.epoch = 0
	}
}

// fact identifies one directional cover fact: vertex v's coverage of
// the query subtree beyond one of its incident predicates, k being the
// index of that (vertex, slot) in the flat fact arrays.
type fact struct{ v, k int }

// dropSupportSlot removes v's contribution from neighbor facts across
// v's list q (v no longer covers "away from q").
func (g *Graph) dropSupportSlot(cs *cutState, v, first, q int, work []fact) []fact {
	c, n := g.farFacts(v, first, q)
	for _, eID := range g.lists[q] {
		e := &g.edges[eID]
		if e.Color == Red {
			continue
		}
		w := e.U
		if w == v {
			w = e.V
		}
		kw := c + w*n
		cs.support[kw]--
		if cs.support[kw] == 0 && cs.cover[kw] {
			work = append(work, fact{w, kw})
		}
	}
	return work
}

// edgeValidNow evaluates validity from the current cover facts.
func (g *Graph) edgeValidNow(id int) bool {
	e := &g.edges[id]
	if e.Color == Red {
		return false
	}
	ku, kv := g.edgeFacts(e)
	return g.cs.coversAllExcept(e.U, ku) && g.cs.coversAllExcept(e.V, kv)
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
	if len(g.cs.edgeEpoch) != len(g.edges) {
		g.cs.edgeEpoch = make([]int32, len(g.edges))
		g.cs.epoch = 0
	}
}

// --- hypothetical cuts (Eq. 1 support) ---

// journalEntry records one state mutation for rollback: a decrement of
// support[k] (v < 0), or cover[k] flipped false at vertex v.
type journalEntry struct{ k, v int32 }

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
	return g.cutLossTree(v, pred)
}

// cutLossTree runs the journaled hypothetical cut on the graph's cover
// facts, mutating them and rolling back before it returns.
func (g *Graph) cutLossTree(v, pred int) (loss, bundle int) {
	cs := &g.cs
	slot := g.checkedSlotOf(v, pred)
	if slot < 0 {
		return 0, 0
	}
	journal := cs.journal[:0]
	work := cs.work[:0]
	if cs.epoch == math.MaxInt32 {
		clear(cs.edgeEpoch)
		cs.epoch = 0
	}
	cs.epoch++

	// Virtually redden the bundle: each non-red edge (v,w) on pred
	// stops supporting cover facts on BOTH sides. Bundle members are
	// stamped with the epoch so the loss count can exclude them.
	epoch := cs.epoch
	first, _ := g.firstList(v)
	kv := first + slot
	c, n := g.farFacts(v, first, kv)
	// No fact flips before the propagation below, so whether v covers
	// everything but the bundle's slot is one answer for the whole bundle.
	vCovers := cs.coversAllExcept(v, kv)
	for _, eID := range g.lists[kv] {
		e := &g.edges[eID]
		if e.Color != Unknown {
			continue
		}
		bundle++
		cs.edgeEpoch[eID] = -epoch
		w := e.U
		if w == v {
			w = e.V
		}
		kw := c + w*n
		// An edge contributes to its endpoint's support only while its
		// other endpoint covers-all-except the predicate (that is the
		// invariant the propagation maintains), so removing the edge
		// decrements only live contributions.
		if vCovers {
			cs.support[kw]--
			journal = append(journal, journalEntry{k: int32(kw), v: -1})
			if cs.support[kw] == 0 && cs.cover[kw] {
				work = append(work, fact{w, kw})
			}
		}
		if cs.coversAllExcept(w, kw) {
			cs.support[kv]--
			journal = append(journal, journalEntry{k: int32(kv), v: -1})
			if cs.support[kv] == 0 && cs.cover[kv] {
				work = append(work, fact{v, kv})
			}
		}
	}

	// Propagate false facts, counting newly-invalid edges.
	newlyInvalid := 0
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if !cs.cover[f.k] {
			continue
		}
		cs.cover[f.k] = false
		cs.falseCount[f.v]++
		journal = append(journal, journalEntry{k: int32(f.k), v: int32(f.v)})
		first, slots := g.firstList(f.v)

		// coversAllExcept(f.v, q) flipped false at every other slot (first
		// false fact) or at the one slot that was already false (second).
		switch cs.falseCount[f.v] {
		case 1:
			for q := first; q < first+slots; q++ {
				if q != f.k {
					journal, work = g.dropSupportJournaled(cs, f.v, first, q, journal, work, &newlyInvalid)
				}
			}
		case 2:
			for q := first; q < first+slots; q++ {
				if q != f.k && !cs.cover[q] {
					journal, work = g.dropSupportJournaled(cs, f.v, first, q, journal, work, &newlyInvalid)
					break
				}
			}
		}
		// Edges on f's own slot: the fact turning false does not by
		// itself invalidate those edges (validity looks at
		// coversAllExcept of both endpoints w.r.t. their own pred), but
		// coversAllExcept(f.v, q) flips handled above cover that.
	}

	// Rollback in reverse order.
	for i := len(journal) - 1; i >= 0; i-- {
		j := journal[i]
		if j.v < 0 {
			cs.support[j.k]++
		} else {
			cs.cover[j.k] = true
			cs.falseCount[j.v]--
		}
	}
	cs.journal = journal[:0]
	cs.work = work[:0]
	return newlyInvalid, bundle
}

// dropSupportJournaled is dropSupportSlot for a hypothetical cut:
// coversAllExcept(v, q) just flipped false under cs, so every non-red
// edge at v on slot q stops supporting its far endpoint (journaled for
// rollback) and, if it was an askable edge outside the bundle, counts
// once toward the loss. Only uncolored edges count: invalidating an
// already-asked (blue) edge saves no task. Bundle members carry
// -epoch, already-counted edges +epoch; both are excluded.
func (g *Graph) dropSupportJournaled(cs *cutState, v, first, q int, journal []journalEntry, work []fact, loss *int) ([]journalEntry, []fact) {
	c, n := g.farFacts(v, first, q)
	epoch := cs.epoch
	for _, eID := range g.lists[q] {
		e := &g.edges[eID]
		if e.Color == Red {
			continue
		}
		if stamp := cs.edgeEpoch[eID]; stamp != -epoch && stamp != epoch && e.Color == Unknown && g.valid[eID] {
			cs.edgeEpoch[eID] = epoch
			*loss++
		}
		w := e.U
		if w == v {
			w = e.V
		}
		kw := c + w*n
		cs.support[kw]--
		journal = append(journal, journalEntry{k: int32(kw), v: -1})
		if cs.support[kw] == 0 && cs.cover[kw] {
			work = append(work, fact{w, kw})
		}
	}
	return journal, work
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
			flipped = append(flipped, eID)
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
