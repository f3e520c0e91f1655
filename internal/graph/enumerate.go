package graph

import (
	"sort"
)

// Embedding is one candidate (Definition 2) or answer (Definition 4):
// an assignment of one tuple (vertex id) per table plus the edge used
// for each predicate. Prob is the product of edge weights, where blue
// edges contribute 1 (certain) and uncolored edges their matching
// probability; red edges never appear.
type Embedding struct {
	Assign []int // vertex id per table index
	Edges  []int // edge id per predicate index
	Prob   float64
}

// predOrder returns the predicates in a connected order: every
// predicate after the first shares a table with some earlier one.
// Structure.Validate guarantees such an order exists.
func (s *Structure) predOrder() []int {
	if len(s.Preds) == 0 {
		return nil
	}
	used := make([]bool, len(s.Preds))
	tableSeen := make([]bool, len(s.Tables))
	order := make([]int, 0, len(s.Preds))
	order = append(order, 0)
	used[0] = true
	tableSeen[s.Preds[0].A] = true
	tableSeen[s.Preds[0].B] = true
	for len(order) < len(s.Preds) {
		advanced := false
		for p := range s.Preds {
			if used[p] {
				continue
			}
			if tableSeen[s.Preds[p].A] || tableSeen[s.Preds[p].B] {
				used[p] = true
				tableSeen[s.Preds[p].A] = true
				tableSeen[s.Preds[p].B] = true
				order = append(order, p)
				advanced = true
			}
		}
		if !advanced {
			// Disconnected; Validate would have rejected this, but avoid
			// an infinite loop in pathological use.
			break
		}
	}
	return order
}

// enumerator is the state of one embedding walk. The graph keeps one
// and reuses its slices, so steady-state enumeration allocates nothing
// of its own.
type enumerator struct {
	g                      *Graph
	assign, chosen, pinned []int
	keep                   func(Edge) bool
	yield                  func(assign, edges []int) bool
	busy                   bool
}

// reset sizes the walk's slices for g and fills them with -1.
func (en *enumerator) reset(g *Graph) {
	en.g = g
	en.assign = fillMinus1(en.assign, len(g.S.Tables))
	en.chosen = fillMinus1(en.chosen, len(g.S.Preds))
	en.pinned = fillMinus1(en.pinned, len(g.S.Preds))
}

func fillMinus1(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = -1
	}
	return buf
}

// enumerate walks all embeddings over edges accepted by keep,
// pre-pinning the given edges, and calls yield for each complete
// embedding. yield returning false stops the walk. keep must reject
// red edges for candidate semantics.
func (g *Graph) enumerate(pins []int, keep func(Edge) bool, yield func(assign, edges []int) bool) {
	en := &g.enum
	if en.busy {
		// A yield callback is enumerating again: the outer walk still
		// owns the shared scratch.
		en = &enumerator{}
	}
	en.busy = true
	defer func() { en.busy, en.keep, en.yield = false, nil, nil }()
	en.reset(g)
	en.keep, en.yield = keep, yield
	if len(g.S.Preds) == 0 {
		// A lone table and no predicate: each tuple is an embedding.
		for row := 0; row < g.TupleCount(0); row++ {
			en.assign[0] = g.VertexID(0, row)
			if !yield(en.assign, en.chosen) {
				return
			}
		}
		return
	}
	// Apply pins: fix assignments; bail on inconsistency.
	for _, eID := range pins {
		e := g.edges[eID]
		if !keep(e) {
			return
		}
		p := g.S.Preds[e.Pred]
		if en.pinned[e.Pred] >= 0 && en.pinned[e.Pred] != eID {
			return // two pins on one predicate
		}
		en.pinned[e.Pred] = eID
		if en.assign[p.A] >= 0 && en.assign[p.A] != e.U {
			return
		}
		if en.assign[p.B] >= 0 && en.assign[p.B] != e.V {
			return
		}
		en.assign[p.A], en.assign[p.B] = e.U, e.V
	}
	en.rec(0)
}

// rec extends the partial embedding over predicate k of the connected
// order; false means yield asked to stop.
func (en *enumerator) rec(k int) bool {
	g := en.g
	if k == len(g.predOrder) {
		return en.yield(en.assign, en.chosen)
	}
	pIdx := g.predOrder[k]
	p := g.S.Preds[pIdx]
	switch {
	case en.pinned[pIdx] >= 0:
		return en.try(k, en.pinned[pIdx])
	case en.assign[p.A] >= 0:
		c, n := g.slotLists(p.A, pIdx)
		for _, eID := range g.lists[c+en.assign[p.A]*n] {
			if !en.try(k, eID) {
				return false
			}
		}
	case en.assign[p.B] >= 0:
		c, n := g.slotLists(p.B, pIdx)
		for _, eID := range g.lists[c+en.assign[p.B]*n] {
			if !en.try(k, eID) {
				return false
			}
		}
	default:
		// Only the first predicate in the order starts unanchored.
		for eID := range g.edges {
			if g.edges[eID].Pred != pIdx {
				continue
			}
			if !en.try(k, eID) {
				return false
			}
		}
	}
	return true
}

// try places edge eID on predicate k of the order, if it is kept and
// consistent with the assignment so far, and recurses.
func (en *enumerator) try(k, eID int) bool {
	e := en.g.edges[eID]
	if !en.keep(e) {
		return true
	}
	if en.pinned[e.Pred] >= 0 && en.pinned[e.Pred] != eID {
		return true
	}
	p := en.g.S.Preds[e.Pred]
	savedA, savedB := en.assign[p.A], en.assign[p.B]
	if savedA >= 0 && savedA != e.U {
		return true
	}
	if savedB >= 0 && savedB != e.V {
		return true
	}
	en.assign[p.A], en.assign[p.B] = e.U, e.V
	en.chosen[e.Pred] = eID
	cont := en.rec(k + 1)
	en.assign[p.A], en.assign[p.B] = savedA, savedB
	en.chosen[e.Pred] = -1
	return cont
}

func nonRed(e Edge) bool  { return e.Color != Red }
func allBlue(e Edge) bool { return e.Color == Blue }

// EnumerateEmbeddings walks all embeddings built from edges accepted
// by keep, pre-pinning the given edge ids, and calls yield with the
// assignment (vertex per table) and chosen edge per predicate; yield
// returning false stops the walk. The slices passed to yield are
// reused between calls — copy them if retained. This is the hook the
// cost-control package uses to reason about hypothetical colorings
// (e.g. sampled graphs) without mutating the graph.
func (g *Graph) EnumerateEmbeddings(pins []int, keep func(Edge) bool, yield func(assign, edges []int) bool) {
	g.enumerate(pins, keep, yield)
}

// existsCandidateWithPins reports whether some candidate (embedding
// over non-red edges) contains every pinned edge.
func (g *Graph) existsCandidateWithPins(pins []int) bool {
	found := false
	g.enumerate(pins, nonRed, func(_, _ []int) bool {
		found = true
		return false
	})
	return found
}

// SameCandidate reports whether two edges co-occur in at least one
// candidate — the conflict test of the latency scheduler (§5.2) — by
// search, after two rules that need none: two distinct edges on the
// same predicate never conflict, nor do edges containing different
// tuples of the same table. The scheduler asks it only on cyclic
// structures; on trees ConflictIndex reads the answer off the cover
// facts, and tests hold it to this reference.
func (g *Graph) SameCandidate(e1, e2 int) bool {
	if e1 == e2 {
		return true
	}
	a, b := &g.edges[e1], &g.edges[e2]
	if a.Pred == b.Pred {
		return false // a candidate holds exactly one edge per predicate
	}
	// Different tuples of the same table can't co-occur.
	for _, u := range [2]int{a.U, a.V} {
		for _, v := range [2]int{b.U, b.V} {
			if u != v && g.tableOf[u] == g.tableOf[v] {
				return false
			}
		}
	}
	return g.existsCandidateWithPins([]int{e1, e2})
}

// Answers enumerates all current answers: embeddings whose every edge
// is blue (Definition 4).
func (g *Graph) Answers() []Embedding {
	var out []Embedding
	g.enumerate(nil, allBlue, func(assign, edges []int) bool {
		out = append(out, Embedding{
			Assign: append([]int(nil), assign...),
			Edges:  append([]int(nil), edges...),
			Prob:   1,
		})
		return true
	})
	return out
}

// Candidates enumerates up to maxN candidates (embeddings over non-red
// edges), sorted by Prob descending (ties broken lexicographically on
// the assignment for determinism). maxN <= 0 means no cap.
func (g *Graph) Candidates(maxN int) []Embedding {
	var out []Embedding
	g.enumerate(nil, nonRed, func(assign, edges []int) bool {
		prob := 1.0
		for _, eID := range edges {
			if e := g.edges[eID]; e.Color == Unknown {
				prob *= e.W
			}
		}
		out = append(out, Embedding{
			Assign: append([]int(nil), assign...),
			Edges:  append([]int(nil), edges...),
			Prob:   prob,
		})
		return maxN <= 0 || len(out) < maxN
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		for k := range out[i].Assign {
			if out[i].Assign[k] != out[j].Assign[k] {
				return out[i].Assign[k] < out[j].Assign[k]
			}
		}
		return false
	})
	return out
}
