package cost

import (
	"sort"

	"cdb/internal/graph"
)

// Budget is the order of budget-aware task selection (§5.1.3): to
// find as many answers as possible within B tasks, each round it picks
// the candidate with the highest answer expectation — the product of
// its unresolved edge probabilities (blue edges count 1) — and asks
// that candidate's unknown edges, heaviest first. The cap on B is the
// executor's (exec.Account), not the order's.
type Budget struct {
	// closure, when set via SetClosure, excludes entailed edges from
	// the order: an edge whose label transitivity already determines
	// is treated as resolved, so no budgeted task is spent on it.
	closure *graph.Closure
}

// budgetCandidateCap bounds candidate enumeration per round.
const budgetCandidateCap = 100000

// Name implements Strategy.
func (b *Budget) Name() string { return "CDB-Budget" }

// SetClosure installs (or removes) the transitive-inference overlay.
func (b *Budget) SetClosure(c *graph.Closure) { b.closure = c }

// unresolved reports whether an edge still needs crowd work: uncolored
// and not entailed by the overlay.
func (b *Budget) unresolved(g *graph.Graph, e int) bool {
	if g.Edge(e).Color != graph.Unknown {
		return false
	}
	if b.closure != nil {
		if _, _, ok := b.closure.Entails(e); ok {
			return false
		}
	}
	return true
}

// NextRound implements Strategy.
func (b *Budget) NextRound(g *graph.Graph) []int {
	if b.closure != nil {
		b.closure.Update()
	}
	cands := g.Candidates(budgetCandidateCap)
	var pick *graph.Embedding
	for i := range cands {
		for _, e := range cands[i].Edges {
			if b.unresolved(g, e) {
				pick = &cands[i]
				break
			}
		}
		if pick != nil {
			break
		}
	}
	if pick == nil {
		return nil // everything resolvable is resolved or entailed
	}
	var ask []int
	for _, e := range pick.Edges {
		if b.unresolved(g, e) {
			ask = append(ask, e)
		}
	}
	// Heaviest first (§5.1.3's stated order).
	sort.Slice(ask, func(i, j int) bool {
		wi, wj := g.Edge(ask[i]).W, g.Edge(ask[j]).W
		if wi != wj {
			return wi > wj
		}
		return ask[i] < ask[j]
	})
	return ask
}

// Flush implements Strategy: one more best-candidate batch (repeating
// without fresh colors would re-pick the same candidate, so a single
// batch is all a final round can use).
func (b *Budget) Flush(g *graph.Graph) []int { return b.NextRound(g) }
