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

// strategies is the one table of the §6 competitors a run can be
// configured with; the names are, case aside, internal/bench's method
// labels. CDB is not a row: it is the order of a run that configures
// none.
var strategies = []struct {
	name string
	make StrategyMaker
}{
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

// StrategyByName resolves a strategy name, case-insensitively, to its
// maker; an unknown name's error lists the valid ones.
func StrategyByName(name string) (StrategyMaker, error) {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		if strings.EqualFold(s.name, name) {
			return s.make, nil
		}
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown strategy %q (want %s)", name, strings.Join(names, ", "))
}
