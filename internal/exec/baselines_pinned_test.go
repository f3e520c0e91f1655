package exec

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"cdb/internal/baselines"
	"cdb/internal/cost"
	"cdb/internal/dataset"
	"cdb/internal/graph"
)

// recordingStrategy digests every batch its inner strategy proposes,
// and forwards ExtraTasks so the executor still charges side dedup.
type recordingStrategy struct {
	cost.Strategy
	w io.Writer
}

func (r recordingStrategy) NextRound(g *graph.Graph) []int {
	b := r.Strategy.NextRound(g)
	fmt.Fprintf(r.w, "next %v extra %d\n", b, r.ExtraTasks())
	return b
}

func (r recordingStrategy) Flush(g *graph.Graph) []int {
	b := r.Strategy.Flush(g)
	fmt.Fprintf(r.w, "flush %v extra %d\n", b, r.ExtraTasks())
	return b
}

func (r recordingStrategy) ExtraTasks() int {
	if et, ok := r.Strategy.(interface{ ExtraTasks() int }); ok {
		return et.ExtraTasks()
	}
	return 0
}

// baselinesPinned are the digests of every §6 competitor's run (see
// TestBaselinesPinned), by dataset and query.
var baselinesPinned = map[string]uint64{
	"paper/2J":   0xa087eae5b535e51c,
	"paper/2J1S": 0x15e1fd405e81b6f6,
	"paper/3J":   0x72455791fbb40e3,
	"paper/3J1S": 0xf58affeda9fa3d04,
	"paper/3J2S": 0x220b55d33cc7932b,
	"award/2J":   0x862677f6b0a0c64b,
	"award/2J1S": 0xb6619f93b261cb2b,
	"award/3J":   0xb79b38a5c4b7e1a0,
	"award/3J1S": 0xa19bff7d5e0731bd,
	"award/3J2S": 0xa553a9345e3d1db9,
}

// TestBaselinesPinned pins every round of every baseline — the tree
// models CrowdDB, Qurk, Deco and OptTree, the ER methods Trans and
// ACD, and the greedy budget baseline — on the Table-4 queries of
// both datasets at scale 0.12 under a noisy pool: each round's batch,
// the side-dedup tasks charged so far, the assignments and the final
// colour of every edge. Each run goes once unbounded and once with
// two rounds, so the second round floods Flush. The goldens average
// over repetitions; this test pins each round.
func TestBaselinesPinned(t *testing.T) {
	makers := []struct {
		name string
		make func(p *Plan) cost.Strategy
	}{
		{"greedy-budget", func(*Plan) cost.Strategy { return baselines.NewGreedyBudget(60) }},
	}
	for _, name := range []string{"crowddb", "qurk", "deco", "opttree", "trans", "acd"} {
		mk, err := StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		makers = append(makers, struct {
			name string
			make func(p *Plan) cost.Strategy
		}{name, func(p *Plan) cost.Strategy { return mk(p, 0, nil) }})
	}
	for _, ds := range []string{"paper", "award"} {
		d, err := dataset.ByName(ds, dataset.Config{Seed: 7, Scale: 0.12})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range dataset.QueryLabels() {
			key := ds + "/" + q
			h := fnv.New64a()
			for _, m := range makers {
				for _, maxRounds := range []int{0, 2} {
					p, err := BuildPlan(mustSelect(t, dataset.Queries(ds)[q]), d.Catalog, d.Oracle, DefaultPlanConfig())
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%s max %d\n", m.name, maxRounds)
					rs := recordingStrategy{m.make(p), h}
					rep, err := Run(context.Background(), p, Options{
						Strategy:   rs,
						Redundancy: 3,
						MaxRounds:  maxRounds,
						Pool:       noisyPool(61),
					})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "tasks %d assignments %d rounds %d\n", rep.Metrics.Tasks, rep.Assignments, rep.Metrics.Rounds)
					for e := 0; e < p.G.NumEdges(); e++ {
						fmt.Fprint(h, int(p.G.Edge(e).Color))
					}
					fmt.Fprintln(h)
				}
			}
			if got, want := h.Sum64(), baselinesPinned[key]; got != want {
				t.Errorf("%s: digest %#x, pinned %#x", key, got, want)
			}
		}
	}
}
