package baselines

import (
	"sort"
	"strings"

	"cdb/internal/graph"
)

// isSelectionPred reports whether predicate p binds a selection
// constant pseudo-table (planner names them "$const:…").
func isSelectionPred(s *graph.Structure, p int) bool {
	return strings.HasPrefix(s.Tables[s.Preds[p].A], "$const:") ||
		strings.HasPrefix(s.Tables[s.Preds[p].B], "$const:")
}

// CrowdDBOrder is the rule-based plan of CrowdDB: push selections down
// (evaluate them first), then process joins in the order written.
func CrowdDBOrder(s *graph.Structure) []int {
	var sels, joins []int
	for p := range s.Preds {
		if isSelectionPred(s, p) {
			sels = append(sels, p)
		} else {
			joins = append(joins, p)
		}
	}
	return append(sels, joins...)
}

// QurkOrder is Qurk's rule-based plan: joins in the order written,
// selections afterwards (Qurk optimizes individual joins but does not
// reorder around selections).
func QurkOrder(s *graph.Structure) []int {
	var sels, joins []int
	for p := range s.Preds {
		if isSelectionPred(s, p) {
			sels = append(sels, p)
		} else {
			joins = append(joins, p)
		}
	}
	return append(joins, sels...)
}

// permutations enumerates all predicate orders (n ≤ ~6 in practice).
func permutations(n int) [][]int {
	cur := make([]int, 0, n)
	used := make([]bool, n)
	var out [][]int
	var rec func()
	rec = func() {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, i)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// EstimateOrderCost predicts the number of tasks a tree-model
// execution of the given order would ask, from edge weights alone (no
// ground truth): per-vertex survival probabilities are propagated
// predicate by predicate — Deco-style cost modelling.
func EstimateOrderCost(g *graph.Graph, order []int) float64 {
	aliveProb := make([]float64, g.NumVertices())
	for i := range aliveProb {
		aliveProb[i] = 1
	}
	total := 0.0
	for _, p := range order {
		// Expected frontier size.
		type upd struct {
			v    int
			keep float64
		}
		noBlue := map[int]float64{}
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(e)
			if ed.Pred != p {
				continue
			}
			pa, pb := aliveProb[ed.U], aliveProb[ed.V]
			if ed.Color == graph.Unknown {
				// Pre-colored (traditional) edges cost nothing; only
				// crowd edges contribute expected tasks.
				total += pa * pb
			}
			// Track P(no blue edge survives) per endpoint.
			if _, ok := noBlue[ed.U]; !ok {
				noBlue[ed.U] = 1
			}
			if _, ok := noBlue[ed.V]; !ok {
				noBlue[ed.V] = 1
			}
			noBlue[ed.U] *= 1 - pb*ed.W
			noBlue[ed.V] *= 1 - pa*ed.W
		}
		var updates []upd
		pd := g.S.Preds[p]
		for _, tab := range []int{pd.A, pd.B} {
			for row := 0; row < g.TupleCount(tab); row++ {
				v := g.VertexID(tab, row)
				if nb, ok := noBlue[v]; ok {
					updates = append(updates, upd{v: v, keep: 1 - nb})
				} else {
					updates = append(updates, upd{v: v, keep: 0}) // no edges on p: dead
				}
			}
		}
		for _, u := range updates {
			aliveProb[u.v] *= u.keep
		}
	}
	return total
}

// DecoOrder is Deco's cost-based plan: enumerate all orders, pick the
// one with the minimum ESTIMATED cost (weights only — no oracle).
func DecoOrder(g *graph.Graph) []int {
	best, bestCost := 0, 0.0
	perms := permutations(len(g.S.Preds))
	for i, ord := range perms {
		c := EstimateOrderCost(g, ord)
		if i == 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return perms[best]
}

// SimulateOrderCost computes the EXACT number of tasks a tree-model
// execution of order would ask, given the true edge colors.
func SimulateOrderCost(g *graph.Graph, truth []bool, order []int) int {
	isBlue := func(e graph.Edge) bool { return truth[e.ID] }
	cost := 0
	for stage, p := range order {
		cost += len(frontierEdges(g, p, g.Survivors(order[:stage], isBlue)))
	}
	return cost
}

// OptTreeOrder is the paper's oracle tree baseline: enumerate all join
// orders against the TRUE colors and return the cheapest. It reports
// the best any tree-model system could possibly do.
func OptTreeOrder(g *graph.Graph, truth []bool) []int {
	perms := permutations(len(g.S.Preds))
	type scored struct {
		idx, cost int
	}
	best := scored{idx: 0, cost: 1 << 60}
	for i, ord := range perms {
		if c := SimulateOrderCost(g, truth, ord); c < best.cost {
			best = scored{idx: i, cost: c}
		}
	}
	return perms[best.idx]
}

// sortedEdgeIDs returns all edges of predicate p by descending weight
// (ties by id), used by ER baselines.
func sortedEdgeIDs(g *graph.Graph, p int) []int {
	var out []int
	for e := 0; e < g.NumEdges(); e++ {
		if g.Edge(e).Pred == p {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		wi, wj := g.Edge(out[i]).W, g.Edge(out[j]).W
		if wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	return out
}
