package cost

import (
	"slices"
	"testing"

	"cdb/internal/graph"
	"cdb/internal/stats"
)

// TestPriorityLeadsTheOrder pins what a planned order is to the
// strategy: a leading key over the keys it already had. Every round,
// the order must be the naive reference's regrouped stably by predicate
// rank — nothing inside a rank moves.
func TestPriorityLeadsTheOrder(t *testing.T) {
	r := stats.NewRNG(2020)
	for trial := 0; trial < 120; trial++ {
		g := randomShapedGraph(r)
		e := &Expectation{Priority: r.Perm(len(g.S.Preds))}
		for round := 0; ; round++ {
			if round > 200 {
				t.Fatalf("trial %d: does not terminate", trial)
			}
			want, _ := NaiveOrderScored(g)
			slices.SortStableFunc(want, func(a, b int) int {
				return e.Priority[g.Edge(a).Pred] - e.Priority[g.Edge(b).Pred]
			})
			if got := e.Order(g); !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d: order %v, want the reference grouped by rank %v",
					trial, round, got, want)
			}
			batch := e.NextRound(g)
			if len(batch) == 0 {
				break
			}
			for _, id := range batch {
				if r.Bool(g.Edge(id).W) {
					g.SetColor(id, graph.Blue)
				} else {
					g.SetColor(id, graph.Red)
				}
			}
		}
	}
}
