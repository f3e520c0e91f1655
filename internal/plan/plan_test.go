package plan_test

import (
	"strings"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/plan"
	"cdb/internal/table"
)

// buildPlan parses q and instantiates its query graph over cat with
// the default similarity settings and exact-match ground truth.
func buildPlan(t *testing.T, cat *table.Catalog, q string) *exec.Plan {
	t.Helper()
	st, err := cql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p, err := exec.BuildPlan(st.(*cql.Select), cat, exec.ExactOracle{}, exec.PlanConfig{})
	if err != nil {
		t.Fatalf("build plan: %v", err)
	}
	return p
}

// chainCatalog builds T0(b) ~ T1(a,b) ~ T2(a) where predicate 0 is
// dense (every T0.b is similar to every T1.a) and predicate 1 is
// sparse (two candidate pairs).
func chainCatalog(t *testing.T) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog()
	mk := func(name string, cols []string, rows [][]string) {
		var sc table.Schema
		sc.Name = name
		for _, c := range cols {
			sc.Columns = append(sc.Columns, table.Column{Name: c, Kind: table.String})
		}
		tb := table.New(sc)
		for _, r := range rows {
			tp := make(table.Tuple, len(r))
			for i, v := range r {
				tp[i] = table.SV(v)
			}
			tb.MustAppend(tp)
		}
		cat.Register(tb)
	}
	mk("T0", []string{"b"}, [][]string{{"xa01"}, {"xa02"}, {"xa03"}, {"xa04"}})
	mk("T1", []string{"a", "b"}, [][]string{{"xa01", "qq11"}, {"xa02", "qq12"}, {"xa03", "mm77"}})
	mk("T2", []string{"a"}, [][]string{{"qq11"}, {"zz99"}})
	return cat
}

const chainQuery = "SELECT * FROM T0, T1, T2 WHERE T0.b CROWDJOIN T1.a AND T1.b CROWDJOIN T2.a;"

func TestGreedyOrdersCheapestPredicateFirst(t *testing.T) {
	p := buildPlan(t, chainCatalog(t), chainQuery)
	d := plan.Greedy(p, 0)
	if len(d.Order) != 2 {
		t.Fatalf("order = %v, want 2 steps", d.Order)
	}
	if d.Order[0] != 1 {
		t.Errorf("greedy picked p%d first, want the sparse p1 (order %v)", d.Order[0], d.Order)
	}
	if d.EarlyExit {
		t.Errorf("unexpected early exit: %+v", d)
	}
	if d.PredictedTasks <= 0 || d.FixedTasks < d.PredictedTasks {
		t.Errorf("predicted=%d fixed=%d, want 0 < predicted <= fixed", d.PredictedTasks, d.FixedTasks)
	}
	for i, st := range d.Steps {
		if st.Pred != d.Order[i] {
			t.Errorf("step %d pred %d != order %d", i, st.Pred, d.Order[i])
		}
		sum := 0
		for _, n := range st.Histogram {
			sum += n
		}
		if sum == 0 {
			t.Errorf("step %d: empty histogram for a predicate with candidates", i)
		}
	}
}

func TestGreedyEarlyExitOnEmptyPredicate(t *testing.T) {
	cat := chainCatalog(t)
	// T3 joins T2.a-side values that share no 2-grams with anything.
	sc := table.Schema{Name: "T3", Columns: []table.Column{{Name: "a", Kind: table.String}}}
	tb := table.New(sc)
	tb.MustAppend(table.Tuple{table.SV("##!!##")})
	cat.Register(tb)
	q := "SELECT * FROM T0, T1, T2, T3 WHERE T0.b CROWDJOIN T1.a AND T1.b CROWDJOIN T2.a AND T1.b CROWDJOIN T3.a;"
	p := buildPlan(t, cat, q)
	d := plan.Greedy(p, 0)
	if !d.EarlyExit {
		t.Fatalf("no early exit: %+v", d)
	}
	if d.PredictedTasks != 0 {
		t.Errorf("early-exit plan predicts %d tasks, want 0", d.PredictedTasks)
	}
	if d.EarlyExitStep != len(d.Steps)-1 {
		t.Errorf("EarlyExitStep = %d, want last step %d", d.EarlyExitStep, len(d.Steps)-1)
	}
	if !strings.HasSuffix(d.JoinOrder(), "→∅") {
		t.Errorf("JoinOrder %q lacks the early-exit marker", d.JoinOrder())
	}
	if d.EarlyExits() != 1 {
		t.Errorf("EarlyExits = %d, want 1", d.EarlyExits())
	}
	// The empty predicate must be the one greedy exits on, and its step
	// must be flagged.
	last := d.Steps[len(d.Steps)-1]
	if last.Pred != 2 || !last.EarlyExit {
		t.Errorf("exit step = %+v, want pred 2 flagged", last)
	}
}

func TestDescribeWireFields(t *testing.T) {
	p := buildPlan(t, chainCatalog(t), chainQuery)
	d := plan.Greedy(p, 4)
	ex := plan.Describe(p, d, true)
	if ex.Statement != p.Stmt.String() {
		t.Errorf("statement %q", ex.Statement)
	}
	if ex.Structure != "chain" {
		t.Errorf("structure %q, want chain", ex.Structure)
	}
	if len(ex.Tables) != 3 {
		t.Errorf("tables %v, want the 3 FROM tables", ex.Tables)
	}
	if !ex.Greedy || ex.JoinOrder != d.JoinOrder() {
		t.Errorf("greedy=%v order=%q", ex.Greedy, ex.JoinOrder)
	}
	for _, st := range ex.Steps {
		if len(st.Histogram) > 4 {
			t.Errorf("histogram %v exceeds 4 bins", st.Histogram)
		}
	}
}

func TestOrderedStrategyFollowsPlan(t *testing.T) {
	p := buildPlan(t, chainCatalog(t), chainQuery)
	o := (&plan.Decision{Order: []int{1, 0}}).Strategy(p)
	batch := o.NextRound(p.G)
	if len(batch) == 0 {
		t.Fatal("empty first round")
	}
	for _, e := range batch {
		if p.G.Edge(e).Pred != 1 {
			t.Fatalf("first round asked pred %d, want 1", p.G.Edge(e).Pred)
		}
	}
	// Color the first predicate's edges blue; the next round must move
	// on to pred 0.
	for _, e := range batch {
		p.G.SetColor(e, graph.Blue)
	}
	batch = o.NextRound(p.G)
	if len(batch) == 0 {
		t.Fatal("empty second round")
	}
	for _, e := range batch {
		if p.G.Edge(e).Pred != 0 {
			t.Fatalf("second round asked pred %d, want 0", p.G.Edge(e).Pred)
		}
	}
}
