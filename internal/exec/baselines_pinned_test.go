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
	"paper/2J":   0x2d42cfb62e773201,
	"paper/2J1S": 0x6148819732f0df59,
	"paper/3J":   0xa6fdb9a84c403d58,
	"paper/3J1S": 0xdbfac21b8711843f,
	"paper/3J2S": 0xaa7a078b16a33f22,
	"award/2J":   0xf619c68135e080ad,
	"award/2J1S": 0xcfc9342d17c68812,
	"award/3J":   0x8d54342080c0e575,
	"award/3J1S": 0x81d64458c7583c9c,
	"award/3J2S": 0x408a521475d0cec6,
}

// TestBaselinesPinned pins every round of every baseline — the tree
// models CrowdDB, Qurk, Deco and OptTree, the ER methods Trans and
// ACD, and the greedy budget baseline — on the Table-4 queries of
// both datasets at scale 0.12 under a noisy pool: each round's batch,
// the side-dedup tasks charged so far, the assignments and the final
// colour of every edge. Each run goes once unbounded and once with
// two rounds, so the second round floods Flush. The greedy baseline
// runs under an account of 60 tasks, and its batches are logged as
// proposed, before the account trims them. The goldens average over
// repetitions; this test pins each round.
func TestBaselinesPinned(t *testing.T) {
	type maker struct {
		name   string
		make   func(p *Plan) cost.Strategy
		budget int // the account's task cap; 0 means none
	}
	makers := []maker{{"greedy-budget", func(*Plan) cost.Strategy { return baselines.NewGreedyBudget() }, 60}}
	for _, name := range []string{"crowddb", "qurk", "deco", "opttree", "trans", "acd"} {
		mk, err := StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		makers = append(makers, maker{name, func(p *Plan) cost.Strategy { return mk(p, 0, nil) }, 0})
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
					opts := Options{
						Strategy:   recordingStrategy{m.make(p), h},
						Redundancy: 3,
						MaxRounds:  maxRounds,
						Pool:       noisyPool(61),
					}
					if m.budget > 0 {
						opts.Account = NewAccount(m.budget, Reliability{})
					}
					rep, err := Run(context.Background(), p, opts)
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
