package baselines

import "cdb/internal/graph"

// ER is the crowdsourced entity-resolution family of baselines:
// processes join predicates one by one (best estimated order); within
// a join, candidate pairs are asked in descending similarity order
// across multiple waves, and transitivity over the answers deduces
// colors of later pairs for free.
//
//   - Trans (Wang et al., SIGMOD'13 style) trusts both positive and
//     negative transitivity: fewer questions, more rounds, and answer
//     errors propagate through deductions (the ~50% quality drops the
//     paper reports).
//   - ACD (correlation-clustering adaptive dedup approximation) trusts
//     only negative deductions and re-verifies positive ones with the
//     crowd: costs more than Trans, less than tree models, with better
//     quality.
type ER struct {
	Label string
	// TrustPositive enables positive-transitivity deductions (Trans).
	TrustPositive bool
	// Side supplies the within-side dedup comparisons transitivity
	// depends on; the ER method pays one task per pair. Nil disables
	// side dedup (transitivity then only connects through answered
	// cross pairs).
	Side SideOracle

	order   []int
	stage   int
	pending []int // pairs of the current join, weight-descending
	// cl clusters each join's tuples on the crowd's answers and the
	// side-dedup answers it assumes; nil until the first call.
	cl    *graph.Closure
	extra int
}

// SidePair is one within-table dedup comparison (two values of the
// same column) that an entity-resolution method crowdsources so that
// transitivity can propagate across the cross-table pairs. Match is
// the simulated crowd outcome.
type SidePair struct {
	U, V  int // vertex ids
	Match bool
}

// SideOracle returns the within-side similar pairs of a predicate
// restricted to the currently-alive vertices (alive is indexed by
// vertex id).
type SideOracle func(pred int, alive []bool) []SidePair

// ExtraTasks reports tasks issued outside the query graph (side
// dedup); the executor adds them to the cost metric.
func (t *ER) ExtraTasks() int { return t.extra }

// NewTrans builds the transitivity ER baseline.
func NewTrans() *ER { return &ER{Label: "Trans", TrustPositive: true} }

// NewACD builds the adaptive correlation-clustering ER baseline.
func NewACD() *ER { return &ER{Label: "ACD"} }

// Name implements the Strategy contract.
func (t *ER) Name() string { return t.Label }

// start fixes the join order and starts the first join on the first
// call; false means no join is left, which is at once the case for a
// statement without predicates.
func (t *ER) start(g *graph.Graph) bool {
	if t.cl == nil {
		t.order = DecoOrder(g)
		t.cl = graph.NewClosure(g)
		if len(t.order) > 0 {
			t.startJoin(g, t.order[0])
		}
	}
	return t.stage < len(t.order)
}

// startJoin initializes the pending pair list for the predicate,
// restricted to tuples alive after the previously processed joins.
func (t *ER) startJoin(g *graph.Graph, p int) {
	alive := g.Survivors(t.order[:t.stage], blue)
	t.pending = nil
	for _, e := range sortedEdgeIDs(g, p) {
		if ed := g.Edge(e); ed.Color == graph.Unknown && alive[ed.U] && alive[ed.V] {
			t.pending = append(t.pending, e)
		}
	}
	// Pay for within-side dedup: its answers seed the clusters
	// (matches) and constraints (non-matches) that transitive deduction
	// works from.
	if t.Side != nil && len(t.pending) > 0 {
		for _, sp := range t.Side(p, alive) {
			t.extra++
			t.cl.Assume(p, sp.U, sp.V, sp.Match)
		}
	}
}

// NextRound implements the Strategy contract: one wave of mutually
// endpoint-disjoint, non-deducible pairs of the current join.
func (t *ER) NextRound(g *graph.Graph) []int {
	if !t.start(g) {
		return nil
	}
	for {
		t.cl.Update()
		// Deduce what transitivity already knows (ACD re-asks a Blue
		// deduction), then build a wave of endpoint-cluster-disjoint
		// pairs (pairs sharing a cluster must wait: their outcome may
		// become deducible).
		p := t.order[t.stage]
		var wave []int
		busy := map[int]bool{}
		remaining := t.pending[:0]
		for _, e := range t.pending {
			ed := g.Edge(e)
			if ed.Color != graph.Unknown {
				continue
			}
			if c, ok := t.cl.Entails(e); ok && (c == graph.Red || t.TrustPositive) {
				g.SetColor(e, c) // deduced, free
				continue
			}
			remaining = append(remaining, e)
			ra, rb := t.cl.ClusterRoot(p, ed.U), t.cl.ClusterRoot(p, ed.V)
			if !busy[ra] && !busy[rb] {
				busy[ra], busy[rb] = true, true
				wave = append(wave, e)
			}
		}
		t.pending = remaining
		if len(wave) > 0 {
			return wave
		}
		// Current join finished; advance.
		t.stage++
		if t.stage >= len(t.order) {
			return nil
		}
		t.startJoin(g, t.order[t.stage])
	}
}

// Flush implements the Strategy contract: everything still pending on
// this and later joins, without further deduction opportunities.
func (t *ER) Flush(g *graph.Graph) []int {
	if !t.start(g) {
		return nil
	}
	var all []int
	for _, e := range t.pending {
		if g.Edge(e).Color == graph.Unknown {
			all = append(all, e)
		}
	}
	all = flood(g, t.order, t.stage+1, all)
	t.stage, t.pending = len(t.order), nil
	return all
}
