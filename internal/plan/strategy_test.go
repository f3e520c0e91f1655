package plan_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/plan"
	"cdb/internal/stats"
)

// predicateRounds is the reference a planned order is held to: each
// round asks every valid uncolored edge of the first predicate in the
// order that still has any, advancing once it has none — one predicate
// at a time, no scores, no packing.
type predicateRounds struct {
	order []int
	idx   int
}

func (o *predicateRounds) Name() string { return "predicate-rounds" }

func (o *predicateRounds) NextRound(g *graph.Graph) []int {
	for ; o.idx < len(o.order); o.idx++ {
		var batch []int
		for _, id := range g.ValidUncolored() {
			if g.Edge(id).Pred == o.order[o.idx] {
				batch = append(batch, id)
			}
		}
		if len(batch) > 0 {
			return batch
		}
	}
	return nil
}

func (o *predicateRounds) Flush(g *graph.Graph) []int { return g.ValidUncolored() }

// recorded notes every batch its inner strategy issues, sorted.
type recorded struct {
	cost.Strategy
	rounds [][]int
}

func (r *recorded) NextRound(g *graph.Graph) []int {
	batch := r.Strategy.NextRound(g)
	if len(batch) > 0 {
		sorted := slices.Clone(batch)
		slices.Sort(sorted)
		r.rounds = append(r.rounds, sorted)
	}
	return batch
}

// plannedRounds runs a fresh plan from build under the strategy mk
// derives from decide's order, with content-pure verdicts, and returns
// the batches issued.
func plannedRounds(t *testing.T, build func() *exec.Plan, decide func(*exec.Plan, int) *plan.Decision,
	mk func(*exec.Plan, *plan.Decision) cost.Strategy, seed uint64) [][]int {
	t.Helper()
	p := build()
	rec := &recorded{Strategy: mk(p, decide(p, 0))}
	pool := crowd.NewPool(25, 0.85, 0.1, stats.NewRNG(seed))
	_, err := exec.Run(context.Background(), p, exec.Options{
		Strategy:   rec,
		Redundancy: 5,
		Pool:       pool,
		Resolver:   &plan.PureResolver{Seed: seed, Pool: pool},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.rounds
}

// statementOrder is the decision that asks the predicates in the order
// the WHERE clause names them.
func statementOrder(p *exec.Plan, _ int) *plan.Decision {
	d := &plan.Decision{EarlyExitStep: -1}
	for i := range p.S.Preds {
		d.Order = append(d.Order, i)
	}
	return d
}

// TestPlannedOrderMatchesPredicateRounds is the equivalence that let
// the predicate-at-a-time strategy go: cost.Expectation with the plan's
// predicate ranks as its leading key issues, round for round, the
// batches the reference loop issues — over randomized chain and star
// schemas and the ten benchmark shapes, in the greedy order and in
// statement order alike.
func TestPlannedOrderMatchesPredicateRounds(t *testing.T) {
	type workload struct {
		name  string
		build func() *exec.Plan
	}
	var loads []workload
	gen := stats.NewRNG(0xCDB20)
	cases := 300
	if testing.Short() {
		cases = 40
	}
	for i := 0; i < cases; i++ {
		c := plan.RandomCase(gen, 3+gen.Intn(4))
		loads = append(loads, workload{fmt.Sprintf("random%03d", i), func() *exec.Plan {
			return buildPlan(t, c.Catalog, c.Query)
		}})
	}
	for _, ds := range []string{"paper", "award"} {
		d, err := dataset.ByName(ds, dataset.Config{Seed: 9, Scale: 0.12})
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range dataset.QueryLabels() {
			q := dataset.Queries(ds)[label]
			loads = append(loads, workload{ds + "/" + label, func() *exec.Plan {
				st, err := cql.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.PlanConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}})
		}
	}

	reference := func(_ *exec.Plan, d *plan.Decision) cost.Strategy {
		return &predicateRounds{order: d.Order}
	}
	planned := func(p *exec.Plan, d *plan.Decision) cost.Strategy { return d.Strategy(p) }
	runs, rounds, differing := 0, 0, 0
	for i, w := range loads {
		for _, decide := range []func(*exec.Plan, int) *plan.Decision{plan.Greedy, statementOrder} {
			seed := uint64(i) + 1
			want := plannedRounds(t, w.build, decide, reference, seed)
			got := plannedRounds(t, w.build, decide, planned, seed)
			runs++
			rounds += len(want)
			for r := 0; r < len(want) || r < len(got); r++ {
				if r >= len(want) || r >= len(got) || !slices.Equal(want[r], got[r]) {
					differing++
					t.Errorf("%s round %d: planned strategy and predicate rounds issue different batches", w.name, r+1)
					break
				}
			}
		}
	}
	t.Logf("%d runs, %d rounds, %d differing", runs, rounds, differing)
	if rounds == 0 {
		t.Fatal("vacuous: no round issued")
	}
}
