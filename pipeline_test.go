package cdb

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/dataset"
	"cdb/internal/engine"
	"cdb/internal/exec"
)

// openPaper opens paper@0.12 under the benchmark's seeds plus cfg's
// feature switches.
func openPaper(t *testing.T, cfg Config) *DB {
	t.Helper()
	cfg.Seed, cfg.Dataset, cfg.DatasetScale, cfg.DatasetSeed = 1, "paper", 0.12, 1
	db, err := OpenConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// engineResult runs q through a fresh engine over db; submit picks the
// entry point.
func engineResult(t *testing.T, db *DB, submit func(*Engine) (*Future, error)) *Result {
	t.Helper()
	eng, err := db.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fut, err := submit(eng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFeaturePairRules pins the rule table of the pipeline's order
// selection (internal/engine/pipeline.go, DESIGN.md §17), one case per
// row and entry point. A planner-ordered run is recognisable by its
// Result.Plan. Where the planner composes with a crowd path, that path
// must have run: the transport's collect spans, the reissue spans of
// the tasks injected faults dropped, CDB+'s EM infer spans, tasks in
// both markets.
func TestFeaturePairRules(t *testing.T) {
	q := dataset.Queries("paper")["2J"]
	viaExec := func(db *DB, q string) *Result {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	viaEngine := func(db *DB, q string) *Result {
		return engineResult(t, db, func(e *Engine) (*Future, error) {
			return e.Submit(context.Background(), q)
		})
	}
	// viaExecBothMarkets runs q through the pipeline call DB.Exec makes
	// and fails unless both markets received tasks.
	viaExecBothMarkets := func(db *DB, q string) *Result {
		st, err := cql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := engine.RunSelect(context.Background(), db.selectRequest(st.(*cql.Select)))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range twoMarkets {
			if ans.Report.PerMarket[m.Name] == 0 {
				t.Errorf("market %s received no task: %v", m.Name, ans.Report.PerMarket)
			}
		}
		return ans.Result()
	}
	budgeted := strings.Replace(q, ";", " BUDGET 40;", 1)
	groupedBudgeted := strings.Replace(q, ";", " GROUP BY Researcher.affiliation BUDGET 40;", 1)
	orderedBudgeted := strings.Replace(q, ";", " ORDER BY Citation.number BUDGET 40;", 1)
	groupedOrdered := strings.Replace(q, ";", " GROUP BY Researcher.affiliation ORDER BY Researcher.affiliation;", 1)

	cases := []struct {
		name    string
		cfg     Config
		run     func(*DB, string) *Result
		query   string
		planned bool   // the planner's order ran
		span    string // a span only the run's own crowd path emits
	}{
		{"planner alone/exec", Config{Planner: true}, viaExec, q, true, ""},
		{"planner alone/engine", Config{Planner: true}, viaEngine, q, true, ""},
		{"budget beats planner/exec", Config{Planner: true}, viaExec, budgeted, false, ""},
		{"budget beats planner/engine", Config{Planner: true}, viaEngine, budgeted, false, ""},
		{"budget bounds the grouping/exec", Config{}, viaExec, groupedBudgeted, false, ""},
		{"budget bounds the grouping/engine", Config{}, viaEngine, groupedBudgeted, false, ""},
		{"budget bounds the sort/exec", Config{}, viaExec, orderedBudgeted, false, ""},
		{"budget bounds the sort/engine", Config{}, viaEngine, orderedBudgeted, false, ""},
		{"the sort orders the groups/exec", Config{}, viaExec, groupedOrdered, false, ""},
		{"the sort orders the groups/engine", Config{}, viaEngine, groupedOrdered, false, ""},
		{"planner composes with the transport/exec", Config{Planner: true, Reliability: &ReliabilityPolicy{}}, viaExec, q, true, SpanCollect},
		{"planner composes with cdb+/exec", Config{Planner: true, QualityControl: true}, viaExec, q, true, SpanInfer},
		{"planner composes with markets/exec", Config{Planner: true, Markets: twoMarkets}, viaExecBothMarkets, q, true, ""},
		{"planner composes with faults/exec", Config{Planner: true, Faults: &FaultConfig{Seed: 7, DropRate: 0.3}}, viaExec, q, true, SpanReissue},
		{"progress executes for real over a cached answer/engine", Config{},
			func(db *DB, q string) *Result {
				rounds := 0
				res := engineResult(t, db, func(e *Engine) (*Future, error) {
					first, err := e.Submit(context.Background(), q)
					if err != nil {
						return nil, err
					}
					if _, err := first.Result(context.Background()); err != nil {
						return nil, err
					}
					return e.SubmitWithProgress(context.Background(), q, func(RoundUpdate) { rounds++ })
				})
				if rounds == 0 || rounds != res.Stats.Rounds {
					t.Errorf("progress hook saw %d rounds of %d: the cached answer was served", rounds, res.Stats.Rounds)
				}
				return res
			}, q, false, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Tracing = tc.span != ""
			res := tc.run(openPaper(t, tc.cfg), tc.query)
			if tc.span != "" && len(res.Trace.ByName(tc.span)) == 0 {
				t.Errorf("no %s span: the run's own crowd path did not run", tc.span)
			}
			if got := res.Plan != nil; got != tc.planned {
				t.Errorf("planner-ordered = %v, want %v", got, tc.planned)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no answers")
			}
			if strings.Contains(tc.query, "BUDGET 40") && res.Stats.Tasks > 40 {
				t.Errorf("BUDGET 40 spent %d tasks", res.Stats.Tasks)
			}
			if tc.query == orderedBudgeted && (!res.Stats.Partial || res.Stats.Reason != "budget") {
				t.Errorf("the join spends the BUDGET, so the sort is cut short, yet the result is %+v", res.Stats)
			}
			if tc.query == groupedOrdered && res.Columns[len(res.Columns)-1] != "group_count" {
				t.Errorf("columns %v: the sort ordered something other than the groups", res.Columns)
			}
		})
	}
}

// twoMarkets is a cross-market deployment whose second market answers
// worse than the default pool, so a run that ignores the router shows.
var twoMarkets = []MarketSpec{
	{Name: "amt", AssignControl: true, Workers: 30, Accuracy: 0.9, Stddev: 0.05},
	{Name: "cf", Workers: 30, Accuracy: 0.6, Stddev: 0.1},
}

// TestBindScopeRule pins the bind-scope row of the pipeline's rule
// table (engine.SelectRequest.order): every order a DB runs —
// expected-yield, budget or planned; plain, under CDB+, calibrated,
// across markets or over a fault-tolerant transport, with or without
// injected faults; through DB.Exec or the engine — binds only
// the edges that touch a possibly-live tuple. The plan span says so:
// Edges bound of Candidates found. A configured strategy, which only
// cdbench sets, binds every candidate (internal/engine's
// TestConfiguredStrategyBindsEveryCandidate).
func TestBindScopeRule(t *testing.T) {
	q := dataset.Queries("paper")["3J2S"]
	d := dataset.GenPaper(dataset.Config{Seed: 1, Scale: 0.12})
	plans := map[bool]*exec.Plan{}
	for _, liveOnly := range []bool{false, true} {
		cfg := exec.DefaultPlanConfig()
		cfg.LiveOnly = liveOnly
		st, err := cql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if plans[liveOnly], err = exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, cfg); err != nil {
			t.Fatal(err)
		}
	}
	full, pruned := plans[false].G.NumEdges(), plans[true].G.NumEdges()
	if pruned == 0 || 2*pruned > full {
		t.Fatalf("3J2S binds %d of %d edges pruned: the case cannot tell the two binds apart", pruned, full)
	}

	viaExec := func(db *DB, q string) *Result {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	viaEngine := func(db *DB, q string) *Result {
		return engineResult(t, db, func(e *Engine) (*Future, error) {
			return e.Submit(context.Background(), q)
		})
	}
	budgeted := strings.Replace(q, ";", " BUDGET 40;", 1)
	cases := []struct {
		name  string
		cfg   Config
		run   func(*DB, string) *Result
		query string
	}{
		{"plain/exec", Config{}, viaExec, q},
		{"plain/engine", Config{}, viaEngine, q},
		{"cdb+ quality control/exec", Config{QualityControl: true}, viaExec, q},
		{"calibrated/exec", Config{Calibration: true}, viaExec, q},
		{"markets/exec", Config{Markets: twoMarkets}, viaExec, q},
		{"faults/exec", Config{Faults: &FaultConfig{Seed: 7, DropRate: 0.3}}, viaExec, q},
		{"budget/exec", Config{}, viaExec, budgeted},
		{"budget/engine", Config{}, viaEngine, budgeted},
		{"transport/exec", Config{Reliability: &ReliabilityPolicy{}}, viaExec, q},
		{"planner/exec", Config{Planner: true}, viaExec, q},
		{"planner/engine", Config{Planner: true}, viaEngine, q},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Tracing = true
			res := tc.run(openPaper(t, tc.cfg), tc.query)
			spans := res.Trace.ByName(SpanPlan)
			if len(spans) != 1 {
				t.Fatalf("%d plan spans", len(spans))
			}
			if got := spans[0].Edges; got != pruned {
				t.Errorf("bound %d edges, want the live-touching %d (full bind %d)", got, pruned, full)
			}
			if c := spans[0].Candidates; c < spans[0].Edges {
				t.Errorf("plan span: %d candidates for %d edges", c, spans[0].Edges)
			}
		})
	}
}

// TestExplainGreedyFlagFollowsTheOrder: EXPLAIN's greedy flag is the
// order a run follows, not the planner's configuration. Under a greedy
// planner BUDGET n wins and a fault-tolerant transport composes, so
// EXPLAIN says greedy exactly when the run then carries a greedy
// Result.Plan — through DB.Explain / DB.Exec, and through
// Engine.Explain / Engine.Submit. The engine serves no reliability
// policy, so a DB carrying one gets no engine (NewEngine names it).
func TestExplainGreedyFlagFollowsTheOrder(t *testing.T) {
	q := dataset.Queries("paper")["3J2S"]
	budgeted := strings.Replace(q, ";", " BUDGET 40;", 1)
	check := func(t *testing.T, via string, ex *Plan, res *Result, want bool) {
		t.Helper()
		if ex.Greedy != want {
			t.Errorf("%s: EXPLAIN greedy = %v, want %v", via, ex.Greedy, want)
		}
		if got := res.Plan != nil && res.Plan.Greedy; got != want {
			t.Errorf("%s: the run followed the greedy plan = %v, want %v", via, got, want)
		}
	}
	for _, rel := range []*ReliabilityPolicy{nil, {}} {
		for _, query := range []string{q, budgeted} {
			name := map[bool]string{false: "plain", true: "budget"}[query == budgeted] +
				map[bool]string{false: "", true: "+reliability"}[rel != nil]
			t.Run(name, func(t *testing.T) {
				db := openPaper(t, Config{Planner: true, Reliability: rel})
				ex, err := db.Explain(query)
				if err != nil {
					t.Fatal(err)
				}
				res, err := db.Exec(query)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "DB", ex, res, query == q)

				eng, err := db.NewEngine()
				if rel != nil {
					if err == nil || !strings.Contains(err.Error(), "Reliability") {
						t.Fatalf("NewEngine over a reliability policy: err = %v, want the policy named", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				if ex, err = eng.Explain(query); err != nil {
					t.Fatal(err)
				}
				fut, err := eng.Submit(context.Background(), query)
				if err != nil {
					t.Fatal(err)
				}
				if res, err = fut.Result(context.Background()); err != nil {
					t.Fatal(err)
				}
				check(t, "Engine", ex, res, query == q)
			})
		}
	}
}

// TestExplainDescribesTheRun: for every benchmark shape on paper and
// award at scale 0.12, EXPLAIN reports the plan a greedy run then
// follows — the executed Result.Plan, field by field but for the
// planning wall time — through DB.Exec and Engine.Submit. Both bind the
// same graph, so a plan-time proof cannot land at a different step.
func TestExplainDescribesTheRun(t *testing.T) {
	same := func(t *testing.T, via string, ex, ran *Plan) {
		t.Helper()
		if ran == nil {
			t.Fatalf("%s: the run carries no plan", via)
		}
		a, b := *ex, *ran
		a.PlanningMicros, b.PlanningMicros = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: EXPLAIN\n%+v\ndiffers from the executed plan\n%+v", via, a, b)
		}
	}
	for _, ds := range []string{"paper", "award"} {
		t.Run(ds+"/greedy", func(t *testing.T) {
			db, err := OpenConfig(Config{Seed: 1, Dataset: ds, DatasetScale: 0.12, DatasetSeed: 1, Planner: true})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := db.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, label := range dataset.QueryLabels() {
				q := dataset.Queries(ds)[label]
				ex, err := db.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				res, err := db.Exec(q)
				if err != nil {
					t.Fatal(err)
				}
				same(t, label+" via DB.Exec", ex, res.Plan)

				if ex, err = eng.Explain(q); err != nil {
					t.Fatal(err)
				}
				fut, err := eng.Submit(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if res, err = fut.Result(context.Background()); err != nil {
					t.Fatal(err)
				}
				same(t, label+" via Engine.Submit", ex, res.Plan)
			}
		})
	}
}
