// Package baselines implements every competitor system evaluated in
// §6: the tree-model optimizers (CrowdDB's rule-based plan, Qurk's
// rule-based plan, Deco's cost-model plan, and the oracle OptTree that
// enumerates all join orders against known colors), the crowdsourced
// entity-resolution methods Trans (transitivity-based) and ACD
// (adaptive correlation-clustering-style dedup), and the weight-greedy
// depth-first budget baseline of §6.3.3. All of them implement the
// same Strategy contract as CDB's own selectors, so the executor and
// the quality/latency machinery treat every system identically.
package baselines

import "cdb/internal/graph"

// TreeModel executes a fixed table-level predicate order: round k asks
// every edge of predicate order[k] whose already-joined endpoints
// survive in some all-blue partial embedding — the classical
// tree-model semantics the paper contrasts with tuple-level
// optimization. It never exploits cross-predicate pruning.
type TreeModel struct {
	Label string
	Order []int
	stage int
}

// NewTreeModel wraps a predicate order as a strategy.
func NewTreeModel(label string, order []int) *TreeModel {
	return &TreeModel{Label: label, Order: order}
}

// Name implements the Strategy contract.
func (t *TreeModel) Name() string { return t.Label }

// NextRound implements the Strategy contract.
func (t *TreeModel) NextRound(g *graph.Graph) []int {
	for t.stage < len(t.Order) {
		p := t.Order[t.stage]
		alive := g.Survivors(t.Order[:t.stage], blue)
		t.stage++
		batch := frontierEdges(g, p, alive)
		if len(batch) > 0 {
			return batch
		}
	}
	return nil
}

// Flush implements the Strategy contract: all edges of the remaining
// predicates restricted to currently-alive tuples, in one flood.
func (t *TreeModel) Flush(g *graph.Graph) []int {
	all := flood(g, t.Order, t.stage, nil)
	t.stage = len(t.Order)
	return all
}

// flood appends to batch the uncolored edges of order[from:] whose
// endpoints survive the predicates before them. Survival is
// optimistic: an unanswered edge might still turn blue, so its tuples'
// downstream tasks still remain.
func flood(g *graph.Graph, order []int, from int, batch []int) []int {
	for s := from; s < len(order); s++ {
		batch = append(batch, frontierEdges(g, order[s], g.Survivors(order[:s], notRed))...)
	}
	return batch
}

// blue keeps the edges the crowd confirmed; notRed also keeps the
// unanswered ones.
func blue(e graph.Edge) bool   { return e.Color == graph.Blue }
func notRed(e graph.Edge) bool { return e.Color != graph.Red }

// frontierEdges returns, in id order, the uncolored edges of predicate
// p whose endpoints are alive.
func frontierEdges(g *graph.Graph, p int, alive []bool) []int {
	var out []int
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(e)
		if ed.Pred == p && ed.Color == graph.Unknown && alive[ed.U] && alive[ed.V] {
			out = append(out, e)
		}
	}
	return out
}
