package exec

import (
	"fmt"
	"strings"

	"cdb/internal/baselines"
	"cdb/internal/cost"
	"cdb/internal/stats"
)

// StrategyMaker builds a task-selection strategy over one bound plan.
// samples is the MinCut sampling depth and rng the caller's stream;
// only MinCut draws from it (one Split).
type StrategyMaker func(p *Plan, samples int, rng *stats.RNG) cost.Strategy

// strategies is the one table of task-selection strategies: the
// public cdb.Strategy* names, which are also — case aside — the method
// labels of internal/bench.
var strategies = []struct {
	name string
	make StrategyMaker
}{
	{"cdb", func(*Plan, int, *stats.RNG) cost.Strategy { return &cost.Expectation{} }},
	{"mincut", func(_ *Plan, samples int, rng *stats.RNG) cost.Strategy {
		return cost.NewMinCutSampling(samples, rng.Split())
	}},
	{"crowddb", tree("CrowdDB", func(p *Plan) []int { return baselines.CrowdDBOrder(p.S) })},
	{"qurk", tree("Qurk", func(p *Plan) []int { return baselines.QurkOrder(p.S) })},
	{"deco", tree("Deco", func(p *Plan) []int { return baselines.DecoOrder(p.G) })},
	{"opttree", tree("OptTree", func(p *Plan) []int { return baselines.OptTreeOrder(p.G, p.Truth) })},
	{"trans", er(baselines.NewTrans)},
	{"acd", er(baselines.NewACD)},
}

// tree makes a tree-model baseline that joins in the given order.
func tree(label string, order func(*Plan) []int) StrategyMaker {
	return func(p *Plan, _ int, _ *stats.RNG) cost.Strategy { return baselines.NewTreeModel(label, order(p)) }
}

// er makes an entity-resolution baseline, which dedups each join side
// at similarity 0.35 before it asks across.
func er(newER func() *baselines.ER) StrategyMaker {
	return func(p *Plan, _ int, _ *stats.RNG) cost.Strategy {
		s := newER()
		s.Side = p.ERSideOracle(0.35)
		return s
	}
}

// StrategyNames lists the names StrategyByName accepts.
func StrategyNames() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// StrategyByName resolves a strategy name, case-insensitively, to its
// maker; an unknown name's error lists the valid ones.
func StrategyByName(name string) (StrategyMaker, error) {
	for _, s := range strategies {
		if strings.EqualFold(s.name, name) {
			return s.make, nil
		}
	}
	return nil, fmt.Errorf("unknown strategy %q (want %s)", name, strings.Join(StrategyNames(), ", "))
}
