package graph

// Validity maintenance (Definition 3). An edge is valid iff it appears
// in at least one candidate: an embedding that assigns one tuple per
// table such that every predicate's tuple pair is a non-red edge.
//
// For tree-shaped query structures we maintain directional cover
// facts: cover[v][slot] means "tuple v can be extended to satisfy the
// entire subtree of the query tree that hangs beyond the slot-th
// predicate of v's table". The fact dependency graph is acyclic (it
// follows directed query-tree edges), so an optimistic initialization
// followed by false-propagation computes the unique fixpoint. An edge
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
	cover      [][]bool // cover[v][slot]: v can cover the subtree beyond that pred
	support    [][]int  // supporting-edge counters for cover facts
	falseCount []int    // number of false cover facts per vertex

	epoch     int
	edgeEpoch []int // scratch for hypothetical-cut dedup
	journal   []journalEntry
	work      []fact
}

// coversAllExcept reports whether vertex v's cover facts hold for
// every incident predicate slot except skip (-1 means all slots).
func (cs *cutState) coversAllExcept(v, skipSlot int) bool {
	switch cs.falseCount[v] {
	case 0:
		return true
	case 1:
		return skipSlot >= 0 && !cs.cover[v][skipSlot]
	default:
		return false
	}
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
		len(g.valid) == len(g.edges) && len(g.cs.cover) == g.nVerts {
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
	e := g.edges[id]
	g.valid[id] = false
	uSlot, vSlot := g.slotOf(e.U, e.Pred), g.slotOf(e.V, e.Pred)
	work := g.factWork[:0]
	// The edge contributed to an endpoint's support only while the
	// other endpoint covered everything beyond it (the invariant the
	// propagation maintains), so only live contributions are removed.
	if cs.coversAllExcept(e.U, uSlot) {
		cs.support[e.V][vSlot]--
		if cs.support[e.V][vSlot] == 0 && cs.cover[e.V][vSlot] {
			work = append(work, fact{e.V, vSlot})
		}
	}
	if cs.coversAllExcept(e.V, vSlot) {
		cs.support[e.U][uSlot]--
		if cs.support[e.U][uSlot] == 0 && cs.cover[e.U][uSlot] {
			work = append(work, fact{e.U, uSlot})
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if !cs.cover[f.v][f.slot] {
			continue
		}
		cs.cover[f.v][f.slot] = false
		cs.falseCount[f.v]++
		switch cs.falseCount[f.v] {
		case 1:
			for q := range cs.cover[f.v] {
				if q != f.slot {
					work = g.dropSupportInvalidate(cs, f.v, q, work)
				}
			}
		case 2:
			for q := range cs.cover[f.v] {
				if q != f.slot && !cs.cover[f.v][q] {
					work = g.dropSupportInvalidate(cs, f.v, q, work)
					break
				}
			}
		}
	}
	g.factWork = work[:0]
}

// dropSupportInvalidate is dropSupportSlot with permanent edge
// invalidation: coversAllExcept(v, q) just flipped false, so every
// non-red edge at v on slot q left its last candidate.
func (g *Graph) dropSupportInvalidate(cs *cutState, v, q int, work []fact) []fact {
	pred := g.predsByTable[g.tableOf[v]][q]
	for _, eID := range g.adj[v][q] {
		e := g.edges[eID]
		if e.Color == Red {
			continue
		}
		g.valid[eID] = false
		w := e.U
		if w == v {
			w = e.V
		}
		wSlot := g.slotOf(w, pred)
		cs.support[w][wSlot]--
		if cs.support[w][wSlot] == 0 && cs.cover[w][wSlot] {
			work = append(work, fact{w, wSlot})
		}
	}
	return work
}

func (g *Graph) revalidateTree() {
	n := g.nVerts
	cs := &g.cs
	if cs.cover == nil || len(cs.cover) != n {
		cs.cover = make([][]bool, n)
		cs.support = make([][]int, n)
		cs.falseCount = make([]int, n)
		for v := 0; v < n; v++ {
			slots := len(g.predsByTable[g.tableOf[v]])
			cs.cover[v] = make([]bool, slots)
			cs.support[v] = make([]int, slots)
		}
	}
	// Optimistic init: everything covers; supports count non-red
	// incident edges per slot.
	for v := 0; v < n; v++ {
		cs.falseCount[v] = 0
		for s := range cs.cover[v] {
			cs.cover[v][s] = true
			cnt := 0
			for _, eID := range g.adj[v][s] {
				if g.edges[eID].Color != Red {
					cnt++
				}
			}
			cs.support[v][s] = cnt
		}
	}
	// Worklist of facts that are false: zero support.
	work := g.factWork[:0]
	for v := 0; v < n; v++ {
		for s := range cs.cover[v] {
			if cs.support[v][s] == 0 {
				work = append(work, fact{v, s})
			}
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if !cs.cover[f.v][f.slot] {
			continue
		}
		cs.cover[f.v][f.slot] = false
		cs.falseCount[f.v]++
		// f.v stops supporting neighbor facts through every slot q where
		// coversAllExcept(f.v, q) just flipped from true to false.
		switch cs.falseCount[f.v] {
		case 1:
			// Previously covered everything: coversAllExcept flipped for
			// every slot except the newly false one.
			for q := range cs.cover[f.v] {
				if q != f.slot {
					work = g.dropSupportSlot(cs, f.v, q, work)
				}
			}
		case 2:
			// Previously exactly one false slot f0: coversAllExcept was
			// true only for q==f0; it flips there now.
			for q := range cs.cover[f.v] {
				if q != f.slot && !cs.cover[f.v][q] {
					work = g.dropSupportSlot(cs, f.v, q, work)
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
		cs.edgeEpoch = make([]int, len(g.edges))
		cs.epoch = 0
	}
}

// fact identifies one directional cover fact: vertex v's coverage of
// the query subtree beyond its slot-th incident predicate.
type fact struct{ v, slot int }

// dropSupportSlot removes v's contribution from neighbor facts across
// predicate slot q of v (v no longer covers "away from q").
func (g *Graph) dropSupportSlot(cs *cutState, v, q int, work []fact) []fact {
	pred := g.predsByTable[g.tableOf[v]][q]
	for _, eID := range g.adj[v][q] {
		e := g.edges[eID]
		if e.Color == Red {
			continue
		}
		w := e.U
		if w == v {
			w = e.V
		}
		wSlot := g.slotOf(w, pred)
		cs.support[w][wSlot]--
		if cs.support[w][wSlot] == 0 && cs.cover[w][wSlot] {
			work = append(work, fact{w, wSlot})
		}
	}
	return work
}

// edgeValidNow evaluates validity from the current cover facts.
func (g *Graph) edgeValidNow(id int) bool {
	e := g.edges[id]
	if e.Color == Red {
		return false
	}
	uSlot, vSlot := g.slotOf(e.U, e.Pred), g.slotOf(e.V, e.Pred)
	return g.cs.coversAllExcept(e.U, uSlot) && g.cs.coversAllExcept(e.V, vSlot)
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
		g.cs.edgeEpoch = make([]int, len(g.edges))
		g.cs.epoch = 0
	}
}

// --- hypothetical cuts (Eq. 1 support) ---

// journalEntry records one state mutation for rollback.
type journalEntry struct {
	kind int // 0 support dec, 1 cover flip
	v    int
	slot int
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
	cs.epoch++

	// Virtually redden the bundle: each non-red edge (v,w) on pred
	// stops supporting cover facts on BOTH sides. Bundle members are
	// stamped with the epoch so the loss count can exclude them.
	epoch := cs.epoch
	for _, eID := range g.adj[v][slot] {
		e := g.edges[eID]
		if e.Color != Unknown {
			continue
		}
		bundle++
		cs.edgeEpoch[eID] = -epoch
		w := e.U
		if w == v {
			w = e.V
		}
		wSlot := g.slotOf(w, pred)
		// An edge contributes to support[w][wSlot] only while its other
		// endpoint covers-all-except the predicate (that is the
		// invariant the propagation maintains), so removing the edge
		// decrements only live contributions.
		if cs.coversAllExcept(v, slot) {
			cs.support[w][wSlot]--
			journal = append(journal, journalEntry{kind: 0, v: w, slot: wSlot})
			if cs.support[w][wSlot] == 0 && cs.cover[w][wSlot] {
				work = append(work, fact{w, wSlot})
			}
		}
		if cs.coversAllExcept(w, wSlot) {
			cs.support[v][slot]--
			journal = append(journal, journalEntry{kind: 0, v: v, slot: slot})
			if cs.support[v][slot] == 0 && cs.cover[v][slot] {
				work = append(work, fact{v, slot})
			}
		}
	}

	// Propagate false facts, counting newly-invalid edges.
	newlyInvalid := 0
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if !cs.cover[f.v][f.slot] {
			continue
		}
		cs.cover[f.v][f.slot] = false
		cs.falseCount[f.v]++
		journal = append(journal, journalEntry{kind: 1, v: f.v, slot: f.slot})

		// coversAllExcept(f.v, q) flipped false at every other slot (first
		// false fact) or at the one slot that was already false (second).
		switch cs.falseCount[f.v] {
		case 1:
			for q := range cs.cover[f.v] {
				if q != f.slot {
					journal, work = g.dropSupportJournaled(cs, f.v, q, journal, work, &newlyInvalid)
				}
			}
		case 2:
			for q := range cs.cover[f.v] {
				if q != f.slot && !cs.cover[f.v][q] {
					journal, work = g.dropSupportJournaled(cs, f.v, q, journal, work, &newlyInvalid)
					break
				}
			}
		}
		// Edges on f.slot itself: cover[f.v][f.slot] false does not by
		// itself invalidate those edges (validity looks at
		// coversAllExcept of both endpoints w.r.t. their own pred), but
		// coversAllExcept(f.v, q) flips handled above cover that.
	}

	// Rollback in reverse order.
	for i := len(journal) - 1; i >= 0; i-- {
		j := journal[i]
		switch j.kind {
		case 0:
			cs.support[j.v][j.slot]++
		case 1:
			cs.cover[j.v][j.slot] = true
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
func (g *Graph) dropSupportJournaled(cs *cutState, v, q int, journal []journalEntry, work []fact, loss *int) ([]journalEntry, []fact) {
	pred := g.predsByTable[g.tableOf[v]][q]
	epoch := cs.epoch
	for _, eID := range g.adj[v][q] {
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
		wSlot := g.slotOf(w, pred)
		cs.support[w][wSlot]--
		journal = append(journal, journalEntry{kind: 0, v: w, slot: wSlot})
		if cs.support[w][wSlot] == 0 && cs.cover[w][wSlot] {
			work = append(work, fact{w, wSlot})
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
	for _, eID := range g.adj[v][slot] {
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
