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
type Budget struct{}

// budgetCandidateCap bounds candidate enumeration per round.
const budgetCandidateCap = 100000

// Name implements Strategy.
func (b *Budget) Name() string { return "CDB-Budget" }

// NextRound implements Strategy.
func (b *Budget) NextRound(g *graph.Graph) []int {
	cands := g.Candidates(budgetCandidateCap)
	var pick *graph.Embedding
	for i := range cands {
		for _, e := range cands[i].Edges {
			if g.Edge(e).Color == graph.Unknown {
				pick = &cands[i]
				break
			}
		}
		if pick != nil {
			break
		}
	}
	if pick == nil {
		return nil // everything resolvable is resolved
	}
	var ask []int
	for _, e := range pick.Edges {
		if g.Edge(e).Color == graph.Unknown {
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
