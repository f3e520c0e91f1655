package cost

import (
	"sort"

	"cdb/internal/graph"
)

// Budget implements budget-aware task selection (§5.1.3): maximize the
// number of answers found with at most B tasks. Each round it picks
// the candidate with the highest answer expectation — the product of
// its unresolved edge probabilities (blue edges count 1) — and asks
// that candidate's unknown edges, heaviest first, until the budget is
// exhausted.
type Budget struct {
	B int

	// closure, when set via SetClosure, excludes entailed edges from
	// the budget: an edge whose label transitivity already determines
	// is treated as resolved, so no budgeted task is spent on it.
	closure *graph.Closure

	spent int
}

// budgetCandidateCap bounds candidate enumeration per round.
const budgetCandidateCap = 100000

// NewBudget builds a budget strategy for B tasks.
func NewBudget(b int) *Budget { return &Budget{B: b} }

// Name implements Strategy.
func (b *Budget) Name() string { return "CDB-Budget" }

// SetClosure installs (or removes) the transitive-inference overlay.
func (b *Budget) SetClosure(c *graph.Closure) { b.closure = c }

// Spent reports how many tasks the strategy has issued so far.
func (b *Budget) Spent() int { return b.spent }

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
	if b.spent >= b.B {
		return nil
	}
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
	if remain := b.B - b.spent; len(ask) > remain {
		ask = ask[:remain]
	}
	b.spent += len(ask)
	return ask
}

// Flush implements Strategy: one more best-candidate batch within the
// remaining budget (repeating without fresh colors would re-pick the
// same candidate, so a single batch is all a final round can use).
func (b *Budget) Flush(g *graph.Graph) []int { return b.NextRound(g) }
