package bench

import (
	"fmt"
	"reflect"
	"sort"

	"cdb/internal/dataset"
	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/plan"
	"cdb/internal/stats"
)

// runTotals is one order's totals over a run of statements.
type runTotals struct {
	rounds, hits int
}

func (m *runTotals) add(r *exec.Report) {
	m.rounds += r.Metrics.Rounds
	m.hits += r.HITs
}

// pair runs query in the unplanned and in the greedy order, and EXPLAINs
// the greedy run first. Every verdict is crowd.PureVerdict's under
// verdictSeed — the pipeline installs no resolver for a planned run, so
// the experiment does — and both runs draw the pool from poolSeed, so
// the two orders ask one crowd. It fails when the EXPLAIN differs from
// the plan the greedy run follows, or when the two answers differ:
// bit-identity is the planner's correctness contract.
func pair(src engine.Source, query string, cfg Config, verdictSeed, poolSeed uint64) (ans [2]*engine.Answer, ex *plan.Explained, err error) {
	for i, planned := range []bool{false, true} {
		pool := cfg.pool(stats.NewRNG(poolSeed))
		req, err := newCell(src, query, "CDB", cfg, pool, nil)
		if err != nil {
			return ans, nil, err
		}
		req.Planner = planned
		req.Exec.Resolver = &plan.PureResolver{Seed: verdictSeed, Pool: pool}
		if planned {
			if ex, err = req.Explain(); err != nil {
				return ans, nil, err
			}
		}
		if ans[i], err = runCell(req, cfg, "CDB"); err != nil {
			return ans, nil, err
		}
	}
	ran := *ans[1].Plan
	ran.PlanningMicros = ex.PlanningMicros
	switch {
	case !reflect.DeepEqual(*ex, ran):
		return ans, nil, fmt.Errorf("EXPLAIN %+v differs from the executed plan %+v", *ex, ran)
	case !reflect.DeepEqual(ans[0].Rows, ans[1].Rows):
		return ans, nil, fmt.Errorf("%d greedy answers differ from %d unplanned", len(ans[1].Rows), len(ans[0].Rows))
	}
	return ans, ex, nil
}

// PlanBench is the "plan" experiment: the greedy planner against the
// order an unplanned run follows (cost.Expectation with no priority
// key), equal crowd seeds. Its first table runs randomized chain/star
// schemas (the generator the property tests run) and reports early exits
// with what the unplanned order spent on the same statements; its second
// runs the configured dataset's Table-4 statements. It fails when a pair
// does; TestPlanSavesHITs reports the selection statements' HITs.
func PlanBench(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed)
	queries := 12 * cfg.Reps
	if queries < 24 {
		queries = 24
	}

	var cdb, greedy runTotals
	var earlyExits, earlyExitHITs int
	var planTimes []int64

	for q := 0; q < queries; q++ {
		c := plan.RandomCase(rng, 3+rng.Intn(4))
		verdictSeed := rng.Uint64()
		poolSeed := rng.Uint64()
		src := engine.Source{Catalog: c.Catalog, Oracle: exec.ExactOracle{}, PlanConfig: planCfg}
		plain, ex, err := pair(src, c.Query, cfg, verdictSeed, poolSeed)
		if err != nil {
			return nil, fmt.Errorf("plan bench query %d: %w", q, err)
		}
		planTimes = append(planTimes, ex.PlanningMicros)
		cdb.add(plain[0].Report)
		greedy.add(plain[1].Report)
		if ex.EarlyExit {
			earlyExits++
			earlyExitHITs += plain[0].Report.HITs
		}
	}

	sort.Slice(planTimes, func(i, j int) bool { return planTimes[i] < planTimes[j] })
	p95 := float64(planTimes[len(planTimes)*95/100])
	exits := float64(earlyExits)

	t := &Table{
		ID: "plan",
		Title: fmt.Sprintf("greedy multi-join planning over %d queries: %d HITs saved vs the unplanned order, %d early exits (the unplanned order spent %d HITs on them), planning p95 %dµs",
			queries, cdb.hits-greedy.hits, earlyExits, earlyExitHITs, int64(p95)),
		LabelNames: []string{"mode"},
		ValueNames: []string{"hits", "early_exits", "plan_p95_us"},
		Rows: []Row{
			{Labels: []string{"cdb"}, Values: []float64{float64(cdb.hits), 0, 0}},
			{Labels: []string{"greedy"}, Values: []float64{float64(greedy.hits), exits, p95}},
		},
	}

	// The Table-4 statements, each rep over a fresh instance.
	shapes := &Table{
		ID:         "plan",
		Title:      fmt.Sprintf("greedy vs the unplanned order on the %s Table-4 statements, summed over %d reps", cfg.Dataset, cfg.Reps),
		LabelNames: []string{"query"},
		ValueNames: []string{"cdb_hits", "greedy_hits", "cdb_rounds", "greedy_rounds"},
	}
	rng = stats.NewRNG(cfg.Seed)
	labels := dataset.QueryLabels()
	sums := make([][2]runTotals, len(labels))
	for rep := 0; rep < cfg.Reps; rep++ {
		d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		for i, label := range labels {
			ans, _, err := pair(source(d), dataset.Queries(cfg.Dataset)[label], cfg, rng.Uint64(), rng.Uint64())
			if err != nil {
				return nil, fmt.Errorf("plan bench %s rep %d: %w", label, rep, err)
			}
			sums[i][0].add(ans[0].Report)
			sums[i][1].add(ans[1].Report)
		}
	}
	for i, label := range labels {
		c, g := sums[i][0], sums[i][1]
		shapes.Rows = append(shapes.Rows, Row{Labels: []string{label},
			Values: []float64{float64(c.hits), float64(g.hits), float64(c.rounds), float64(g.rounds)}})
	}
	return []*Table{t, shapes}, nil
}
