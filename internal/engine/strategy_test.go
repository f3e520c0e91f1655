package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/plan"
	"cdb/internal/stats"
	"cdb/internal/table"
)

// competitors are the names exec.StrategyByName builds, §6's
// competitors; "" configures none, which runs CDB's own order.
var competitors = []string{"", "mincut", "crowddb", "qurk", "deco", "opttree", "trans", "acd"}

// runCompetitor runs q over src as cdbench runs a cell: the competitor
// name configures (MinCut sampling 20 deep from the run's stream) over
// a perfect crowd of 30 workers split from the same stream. edit, when
// set, adjusts the request before it runs.
func runCompetitor(t *testing.T, src Source, q, name string, seed uint64, edit func(*SelectRequest)) *Answer {
	t.Helper()
	st, err := cql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	req := &SelectRequest{Source: src, Stmt: st.(*cql.Select),
		Exec: exec.Options{Redundancy: 5, Pool: crowd.NewPerfectPool(30, rng.Split())}}
	if name != "" {
		build, err := exec.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		req.Strategy = func(p *exec.Plan) cost.Strategy { return build(p, 20, rng) }
	}
	if edit != nil {
		edit(req)
	}
	ans, err := RunSelect(context.Background(), req)
	if err != nil {
		t.Fatalf("%q: %v", name, err)
	}
	return ans
}

// label names a competitor's subtest: "" is CDB's own order.
func label(name string) string {
	if name == "" {
		return "cdb"
	}
	return name
}

func TestStrategySelection(t *testing.T) {
	d := dataset.RunningExample()
	src := Source{Catalog: d.Catalog, Oracle: d.Oracle, PlanConfig: exec.DefaultPlanConfig()}
	for _, name := range competitors {
		t.Run(label(name), func(t *testing.T) {
			if rec := runCompetitor(t, src, dataset.RunningExampleQuery, name, 11, nil).Report.Metrics.Recall; rec < 0.99 {
				t.Errorf("recall = %v", rec)
			}
		})
	}
}

// TestZeroPredicateSelect: a SELECT with no predicate leaves every
// strategy nothing to ask, so each one, CDB's own order included,
// returns the table's rows as they are stored and asks no task.
func TestZeroPredicateSelect(t *testing.T) {
	d := dataset.GenPaper(dataset.Config{Seed: 1, Scale: 0.05})
	src := Source{Catalog: d.Catalog, Oracle: d.Oracle, PlanConfig: exec.DefaultPlanConfig()}
	paper, ok := d.Catalog.Get("Paper")
	if !ok {
		t.Fatal("no Paper table")
	}
	var want [][]string
	for _, row := range paper.Rows {
		r := make([]string, len(row))
		for i, v := range row {
			r[i] = v.S
		}
		want = append(want, r)
	}
	if len(want) == 0 {
		t.Fatal("Paper has no rows")
	}
	for _, name := range competitors {
		t.Run(label(name), func(t *testing.T) {
			ans := runCompetitor(t, src, "SELECT * FROM Paper;", name, 1, nil)
			if !reflect.DeepEqual(ans.Rows, want) {
				t.Errorf("%d rows, Paper holds %d", len(ans.Rows), len(want))
			}
			if n := ans.Report.Metrics.Tasks; n != 0 {
				t.Errorf("asked %d tasks of a statement with no predicate", n)
			}
		})
	}
}

// TestCyclicQueryMinCut: three mutually joined tables, a cyclic join
// structure (§5.1.1's graph case). The MinCut sampler works over the
// cycle-broken linearization and finds the one true triangle.
func TestCyclicQueryMinCut(t *testing.T) {
	cat := table.NewCatalog()
	for _, name := range []string{"A", "B", "C"} {
		tb := table.New(table.Schema{Name: name, Columns: []table.Column{{Name: "x"}, {Name: "y"}}})
		y := "beta"
		if name == "B" {
			y = "betb" // similar but unequal: a red edge
		}
		tb.MustAppend(table.Tuple{table.SV("alpha"), table.SV("alpha")})
		tb.MustAppend(table.Tuple{table.SV("beta"), table.SV(y)})
		cat.Register(tb)
	}
	src := Source{Catalog: cat, Oracle: exec.ExactOracle{}, PlanConfig: exec.PlanConfig{Sim: exec.DefaultPlanConfig().Sim, Epsilon: 0.2}}
	ans := runCompetitor(t, src, `SELECT A.x, B.x, C.x FROM A, B, C
		WHERE A.x CROWDJOIN B.x AND B.y CROWDJOIN C.y AND C.x CROWDJOIN A.y;`, "mincut", 47, nil)
	if m := ans.Report.Metrics; m.Recall < 1 || m.Precision < 1 {
		t.Fatalf("metrics %+v rows %v", m, ans.Rows)
	}
	if len(ans.Rows) != 1 || ans.Rows[0][0] != "alpha" {
		t.Fatalf("rows = %v", ans.Rows)
	}
}

// TestConfiguredStrategyBindsEveryCandidate pins the strategy row of
// the pipeline's rule table (SelectRequest.order): a configured
// strategy binds every candidate, with or without BUDGET or the
// planner; every other order binds only the edges that touch a
// possibly-live tuple (the root package's TestBindScopeRule).
func TestConfiguredStrategyBindsEveryCandidate(t *testing.T) {
	q := dataset.Queries("paper")["3J2S"]
	d := dataset.GenPaper(dataset.Config{Seed: 1, Scale: 0.12})
	src := Source{Catalog: d.Catalog, Oracle: d.Oracle, PlanConfig: exec.DefaultPlanConfig()}
	st, err := cql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, src.PlanConfig)
	if err != nil {
		t.Fatal(err)
	}
	full := p.G.NumEdges()
	for _, name := range []string{"mincut", "crowddb"} {
		t.Run(name, func(t *testing.T) {
			for _, tc := range []struct {
				with string
				edit func(*SelectRequest)
			}{
				{"alone", func(*SelectRequest) {}},
				{"BUDGET 40", func(r *SelectRequest) { r.Stmt.Budget = 40 }},
				{"planner", func(r *SelectRequest) { r.Planner = true }},
			} {
				t.Run(tc.with, func(t *testing.T) {
					bound, candidates := 0, 0
					runCompetitor(t, src, q, name, 1, func(r *SelectRequest) {
						tc.edit(r)
						r.Planned = func(p *exec.Plan, _ *plan.Decision) { bound, candidates = p.G.NumEdges(), p.Candidates }
					})
					if bound != full || candidates != full {
						t.Errorf("bound %d edges of %d candidates, want the full bind's %d", bound, candidates, full)
					}
				})
			}
		})
	}
}

// proposals counts the tasks its inner strategy proposes, before the
// account trims them.
type proposals struct {
	cost.Strategy
	n *int
}

func (s proposals) NextRound(g *graph.Graph) []int {
	b := s.Strategy.NextRound(g)
	*s.n += len(b)
	return b
}

// TestConfiguredStrategyIsTheOrder pins the order's precedence: a set
// Strategy orders the run over both the planner and BUDGET's
// cost.Budget, and the statement's account caps the tasks it proposes
// at the BUDGET.
func TestConfiguredStrategyIsTheOrder(t *testing.T) {
	q := strings.Replace(dataset.Queries("paper")["3J2S"], ";", " BUDGET 40;", 1)
	d := dataset.GenPaper(dataset.Config{Seed: 1, Scale: 0.12})
	src := Source{Catalog: d.Catalog, Oracle: d.Oracle, PlanConfig: exec.DefaultPlanConfig()}
	proposed := 0
	ans := runCompetitor(t, src, q, "crowddb", 1, func(r *SelectRequest) {
		r.Planner = true
		configured := r.Strategy
		r.Strategy = func(p *exec.Plan) cost.Strategy { return proposals{configured(p), &proposed} }
	})
	if ans.Plan != nil {
		t.Error("the planner ordered the run over a configured strategy")
	}
	if proposed == 0 {
		t.Fatal("the configured strategy proposed nothing: another order ran in its place")
	}
	if proposed <= 40 {
		t.Fatalf("the strategy proposed %d tasks: the case cannot show the cap", proposed)
	}
	if rep := ans.Report; rep.Metrics.Tasks != 40 || !rep.Capped {
		t.Errorf("BUDGET 40 under a configured strategy: %d tasks, capped = %v; want 40, true", rep.Metrics.Tasks, rep.Capped)
	}
}
