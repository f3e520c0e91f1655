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
// Structure.Validate guarantees one group holds them all.
func (s *Structure) predOrder() []int {
	all := make([]int, len(s.Preds))
	for p := range all {
		all[p] = p
	}
	if groups := s.predGroups(all); len(groups) > 0 {
		return groups[0]
	}
	return nil
}

// predGroups splits a predicate subset into the groups its shared
// tables connect, each in a connected order. A group grows from the
// first predicate of preds not yet placed, sweeping preds in the order
// given.
func (s *Structure) predGroups(preds []int) [][]int {
	used := make([]bool, len(s.Preds))
	seen := make([]bool, len(s.Tables))
	var groups [][]int
	for _, first := range preds {
		if used[first] {
			continue
		}
		group := []int{first}
		used[first], seen[s.Preds[first].A], seen[s.Preds[first].B] = true, true, true
		for grown := true; grown; {
			grown = false
			for _, p := range preds {
				if q := s.Preds[p]; !used[p] && (seen[q.A] || seen[q.B]) {
					used[p], seen[q.A], seen[q.B] = true, true, true
					group = append(group, p)
					grown = true
				}
			}
		}
		groups = append(groups, group)
	}
	return groups
}

// enumerator is the state of one embedding walk. The graph keeps one
// and reuses its slices, so steady-state enumeration allocates nothing
// of its own.
type enumerator struct {
	g                      *Graph
	order                  []int // the connected predicate order walked
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

// enumerate walks all embeddings of the connected predicate order
// over edges accepted by keep, pre-pinning the given edges, and calls
// yield for each complete embedding; tables no predicate of order
// touches stay -1. yield returning false stops the walk. keep must
// reject red edges for candidate semantics.
func (g *Graph) enumerate(order, pins []int, keep func(Edge) bool, yield func(assign, edges []int) bool) {
	en := &g.enum
	if en.busy {
		// A yield callback is enumerating again: the outer walk still
		// owns the shared scratch.
		en = &enumerator{}
	}
	en.busy = true
	defer func() { en.busy, en.order, en.keep, en.yield = false, nil, nil, nil }()
	en.reset(g)
	en.order, en.keep, en.yield = order, keep, yield
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
	if k == len(en.order) {
		return en.yield(en.assign, en.chosen)
	}
	pIdx := en.order[k]
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
	g.enumerate(g.predOrder, pins, keep, yield)
}

// existsCandidateWithPins reports whether some candidate (embedding
// over non-red edges) contains every pinned edge.
func (g *Graph) existsCandidateWithPins(pins []int) bool {
	found := false
	g.enumerate(g.predOrder, pins, nonRed, func(_, _ []int) bool {
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

// Survivors reports, per vertex id, whether the tuple survives the
// predicates preds under the colouring keep accepts: a vertex of a
// table no predicate of preds touches survives, and any other survives
// iff it lies in a keep-embedding of its connected group of preds. The
// baselines ask it for the tuples left after the predicates they have
// processed.
func (g *Graph) Survivors(preds []int, keep func(Edge) bool) []bool {
	alive := make([]bool, g.nVerts)
	touched := make([]bool, len(g.S.Tables))
	for _, p := range preds {
		touched[g.S.Preds[p].A], touched[g.S.Preds[p].B] = true, true
	}
	for v, t := range g.tableOf {
		alive[v] = !touched[t]
	}
	for _, order := range g.S.predGroups(preds) {
		g.enumerate(order, nil, keep, func(assign, _ []int) bool {
			for _, v := range assign {
				if v >= 0 {
					alive[v] = true
				}
			}
			return true
		})
	}
	return alive
}

// Answers enumerates all current answers: embeddings whose every edge
// is blue (Definition 4).
func (g *Graph) Answers() []Embedding {
	var out []Embedding
	g.enumerate(g.predOrder, nil, allBlue, func(assign, edges []int) bool {
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
	g.enumerate(g.predOrder, nil, nonRed, func(assign, edges []int) bool {
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
