package cost

import (
	"cdb/internal/graph"
	"cdb/internal/latency"
)

// NaiveExpectation is the per-edge implementation of the expectation
// strategy (Eq. 1): every call recomputes the pruning expectation of
// every valid uncolored edge, one hypothetical cut per edge endpoint,
// and re-sorts from scratch. It is retained as the equivalence reference
// for Expectation's shared bundle terms and reused buffers — the property tests
// run both side by side and require bit-identical orderings and batches.
// It lives in a _test.go file, so the shipped build carries only
// Expectation.
type NaiveExpectation struct {
	// Serial disables the latency scheduler (one task per round).
	Serial bool
}

// Name implements Strategy.
func (e *NaiveExpectation) Name() string { return "CDB-naive" }

// Order ranks valid uncolored edges by pruning expectation.
func (e *NaiveExpectation) Order(g *graph.Graph) []int {
	order, _ := e.OrderScored(g)
	return order
}

// OrderScored returns the full-rescan ordering and dense scores.
func (e *NaiveExpectation) OrderScored(g *graph.Graph) ([]int, []float64) {
	return NaiveOrderScored(g)
}

// NextRound implements Strategy.
func (e *NaiveExpectation) NextRound(g *graph.Graph) []int {
	order, score := e.OrderScored(g)
	if len(order) == 0 {
		return nil
	}
	if e.Serial {
		return latency.SerialBatch(g, order)
	}
	return latency.ParallelBatchScored(g, order, score)
}

// Flush implements Strategy: everything valid and uncolored.
func (e *NaiveExpectation) Flush(g *graph.Graph) []int {
	return g.ValidUncolored()
}

// NaiveOrderScored computes the expectation ordering by rescoring and
// re-sorting every valid uncolored edge — O(E) CutLoss evaluations and
// a full sort per call. The returned score slice is dense, indexed by
// edge id.
func NaiveOrderScored(g *graph.Graph) ([]int, []float64) {
	edges := g.ValidUncolored()
	score := make([]float64, g.NumEdges())
	for _, id := range edges {
		score[id] = PruningExpectation(g, id)
	}
	sortEdgesByScore(g, edges, score)
	return edges, score
}
