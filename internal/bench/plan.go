package bench

import (
	"fmt"
	"reflect"
	"sort"

	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/plan"
	"cdb/internal/stats"
)

// caseCell is one generated query's request under the planner
// configuration pc, with the closure on when transitive. A planned run
// gets content-pure verdicts seeded by verdictSeed from the pipeline, so
// answers depend only on (seed, edge content) and both orders of a pair
// are directly comparable.
func caseCell(c plan.Case, pc plan.Config, transitive bool, cfg Config, verdictSeed, poolSeed uint64) (*engine.SelectRequest, error) {
	src := engine.Source{Catalog: c.Catalog, Oracle: exec.ExactOracle{}, PlanConfig: planCfg}
	req, err := newCell(src, c.Query, "CDB", cfg, cfg.pool(stats.NewRNG(poolSeed)), nil)
	if err != nil {
		return nil, err
	}
	req.Planner = pc
	req.PureSeed = func() uint64 { return verdictSeed }
	req.Exec.Transitive = transitive
	return req, nil
}

// PlanBench is the "plan" experiment: the greedy planner against
// statement order over randomized chain/star schemas (the same
// generator the property tests run), equal crowd seeds, each order run
// once plain and once with transitive inference on. Early exits are
// reported apart from the HITs saved: both orders spend zero HITs on a
// provably empty join (graph validity prunes every edge), so their
// worth is the fixed-order cost the planner predicted. It fails when an
// EXPLAIN differs from the plan the greedy run then follows or the two
// plain orders' answers diverge (the closure rows are held to HITs only:
// an inferred label is not a content-pure verdict); TestPlanSavesHITs
// and TestPlanComposesWithClosure hold the table to its floors.
func PlanBench(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed)
	queries := 12 * cfg.Reps
	if queries < 24 {
		queries = 24
	}
	greedy, fixed := plan.Config{Greedy: true}, plan.Config{FixedOrder: true}

	var fixedHITs, greedyHITs, earlyExits, earlyExitHITs int
	var fixedTrans, greedyTrans transTotals
	var planTimes []int64

	for q := 0; q < queries; q++ {
		c := plan.RandomCase(rng, 3+rng.Intn(4))
		verdictSeed := rng.Uint64()
		poolSeed := rng.Uint64()
		run := func(pc plan.Config, transitive bool) (*engine.Answer, error) {
			req, err := caseCell(c, pc, transitive, cfg, verdictSeed, poolSeed)
			if err != nil {
				return nil, err
			}
			return runCell(req, cfg, "CDB")
		}

		req, err := caseCell(c, greedy, false, cfg, verdictSeed, poolSeed)
		if err != nil {
			return nil, err
		}
		ex, err := req.Explain()
		if err != nil {
			return nil, err
		}
		planTimes = append(planTimes, ex.PlanningMicros)
		if ex.EarlyExit {
			earlyExits++
			earlyExitHITs += ex.FixedTasks
		}

		rg, err := run(greedy, false)
		if err != nil {
			return nil, err
		}
		rf, err := run(fixed, false)
		if err != nil {
			return nil, err
		}
		greedyHITs += rg.Report.HITs
		fixedHITs += rf.Report.HITs
		for _, cell := range []struct {
			pc  plan.Config
			sum *transTotals
		}{{fixed, &fixedTrans}, {greedy, &greedyTrans}} {
			rt, err := run(cell.pc, true)
			if err != nil {
				return nil, err
			}
			cell.sum.add(rt.Report)
		}

		ran := *rg.Plan
		ran.PlanningMicros = ex.PlanningMicros
		if !reflect.DeepEqual(*ex, ran) {
			return nil, fmt.Errorf("plan bench query %d: EXPLAIN %+v differs from the executed plan %+v", q, *ex, ran)
		}
		// Bit-identity is the planner's correctness contract; a diverging
		// cell means the content-pure verdict layer broke.
		if !reflect.DeepEqual(rg.Rows, rf.Rows) {
			return nil, fmt.Errorf("plan bench query %d: %d greedy answers differ from %d fixed", q, len(rg.Rows), len(rf.Rows))
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
