package bench

import (
	"context"
	"fmt"
	"sort"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/plan"
	"cdb/internal/stats"
)

// planCell executes one generated query under the given planned order
// with content-pure verdicts, so answers depend only on (seed, edge
// content) and both orders of a pair are directly comparable; transitive
// adds the closure overlay to the same planned strategy.
func planCell(c plan.Case, d *plan.Decision, transitive bool, cfg Config, verdictSeed, poolSeed uint64) (*exec.Report, *exec.Plan, error) {
	p, err := buildCasePlan(c)
	if err != nil {
		return nil, nil, err
	}
	pool := crowd.NewPool(cfg.PoolSize, cfg.WorkerQ, cfg.WorkerSD, stats.NewRNG(poolSeed))
	rep, err := exec.Run(context.Background(), p, exec.Options{
		Strategy:   d.Strategy(p),
		Redundancy: cfg.Redundancy,
		Pool:       pool,
		Resolver:   &plan.PureResolver{Seed: verdictSeed, Pool: pool},
		Transitive: transitive,
	})
	return rep, p, err
}

// buildCasePlan binds c's statement as a planned run binds it: the
// live-touching subgraph.
func buildCasePlan(c plan.Case) (*exec.Plan, error) {
	st, err := cql.Parse(c.Query)
	if err != nil {
		return nil, err
	}
	cfg := planCfg
	cfg.LiveOnly = true
	return exec.BuildPlan(st.(*cql.Select), c.Catalog, exec.ExactOracle{}, cfg)
}

// coloredEdges counts edges no longer Unknown — crowd work that touched
// the graph. EXPLAIN-only planning must leave it at zero.
func coloredEdges(g *graph.Graph) int {
	n := 0
	for id := 0; id < g.NumEdges(); id++ {
		if g.Edge(id).Color != graph.Unknown {
			n++
		}
	}
	return n
}

// PlanBench is the "plan" experiment: the greedy planner against
// statement order over randomized chain/star schemas (the same
// generator the property tests run), equal crowd seeds, each order run
// once plain and once with transitive inference on. Early exits are
// reported apart from the HITs saved: both orders spend zero HITs on a
// provably empty join (graph validity prunes every edge), so their
// worth is the fixed-order cost the planner predicted. It fails when an
// EXPLAIN colours an edge or the two plain orders' answers diverge (the
// closure rows are held to HITs only: an inferred label is not a
// content-pure verdict); TestPlanSavesHITs and
// TestPlanComposesWithClosure hold the table to its floors.
func PlanBench(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed)
	queries := 12 * cfg.Reps
	if queries < 24 {
		queries = 24
	}

	var fixedHITs, greedyHITs, earlyExits, earlyExitHITs int
	var fixedTrans, greedyTrans transTotals
	var planTimes []int64

	for q := 0; q < queries; q++ {
		c := plan.RandomCase(rng, 3+rng.Intn(4))
		verdictSeed := rng.Uint64()
		poolSeed := rng.Uint64()

		// EXPLAIN first: planning reads the graph and must not colour it.
		ep, err := buildCasePlan(c)
		if err != nil {
			return nil, err
		}
		decision := plan.Greedy(ep, 0)
		plan.Describe(ep, decision, true)
		if n := coloredEdges(ep.G); n != 0 {
			return nil, fmt.Errorf("plan bench query %d: EXPLAIN coloured %d edges (want 0)", q, n)
		}
		planTimes = append(planTimes, decision.PlanningMicros)
		if decision.EarlyExit {
			earlyExits++
			earlyExitHITs += decision.FixedTasks
		}

		rg, pg, err := planCell(c, decision, false, cfg, verdictSeed, poolSeed)
		if err != nil {
			return nil, err
		}
		fixed := plan.Fixed(ep, 0)
		rf, pf, err := planCell(c, fixed, false, cfg, verdictSeed, poolSeed)
		if err != nil {
			return nil, err
		}
		greedyHITs += rg.HITs
		fixedHITs += rf.HITs
		for _, cell := range []struct {
			d   *plan.Decision
			sum *transTotals
		}{{fixed, &fixedTrans}, {decision, &greedyTrans}} {
			rt, _, err := planCell(c, cell.d, true, cfg, verdictSeed, poolSeed)
			if err != nil {
				return nil, err
			}
			cell.sum.add(rt)
		}

		// Bit-identity is the planner's correctness contract; a diverging
		// cell means the content-pure verdict layer broke.
		gk, fk := pg.AnswerKeys(), pf.AnswerKeys()
		if len(gk) != len(fk) {
			return nil, fmt.Errorf("plan bench query %d: %d greedy answers vs %d fixed", q, len(gk), len(fk))
		}
		for k := range gk {
			if !fk[k] {
				return nil, fmt.Errorf("plan bench query %d: greedy answer %q missing from fixed order", q, k)
			}
		}
	}

	sort.Slice(planTimes, func(i, j int) bool { return planTimes[i] < planTimes[j] })
	p95 := planTimes[len(planTimes)*95/100]

	t := &Table{
		ID: "plan",
		Title: fmt.Sprintf("greedy multi-join planning over %d queries: %d HITs saved vs statement order, %d early exits worth %d predicted HITs, planning p95 %dµs",
			queries, fixedHITs-greedyHITs, earlyExits, earlyExitHITs, p95),
		LabelNames: []string{"mode"},
		ValueNames: []string{"hits", "early_exits", "plan_p95_us", "inferred"},
		Rows: []Row{
			{Labels: []string{"fixed"}, Values: []float64{float64(fixedHITs), 0, 0, 0}},
			{Labels: []string{"greedy"}, Values: []float64{float64(greedyHITs), float64(earlyExits), float64(p95), 0}},
			{Labels: []string{"fixed+closure"}, Values: []float64{float64(fixedTrans.hits), 0, 0, float64(fixedTrans.inferred)}},
			{Labels: []string{"greedy+closure"}, Values: []float64{float64(greedyTrans.hits), float64(earlyExits), float64(p95), float64(greedyTrans.inferred)}},
		},
	}
	return []*Table{t}, nil
}
