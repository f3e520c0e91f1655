package exec

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"cdb/internal/baselines"
	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/graph"
	"cdb/internal/meta"
	"cdb/internal/sim"
	"cdb/internal/stats"
)

func mustSelect(t *testing.T, q string) *cql.Select {
	t.Helper()
	st, err := cql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := st.(*cql.Select)
	if !ok {
		t.Fatalf("parsed %T", st)
	}
	return s
}

func examplePlan(t *testing.T) *Plan {
	t.Helper()
	d := dataset.RunningExample()
	p, err := BuildPlan(mustSelect(t, dataset.RunningExampleQuery), d.Catalog, d.Oracle, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildPlanRunningExample(t *testing.T) {
	p := examplePlan(t)
	if len(p.S.Tables) != 4 {
		t.Fatalf("tables = %v", p.S.Tables)
	}
	if len(p.S.Preds) != 3 {
		t.Fatalf("preds = %v", p.S.Preds)
	}
	if p.G.NumEdges() == 0 {
		t.Fatal("no edges built")
	}
	// The three paper answers must be among the ground-truth embeddings.
	truth := p.TrueAnswerKeys()
	if len(truth) != 3 {
		t.Fatalf("true answers = %d, want 3 (the paper's (u12,r12,p8,c12), (u8,r8,p4,c6), (u9,r9,p5,c7))", len(truth))
	}
}

func TestBuildPlanSelection(t *testing.T) {
	d := dataset.RunningExample()
	q := `SELECT Researcher.name, Paper.title, Citation.number
	      FROM Paper, Citation, Researcher
	      WHERE Paper.title CROWDJOIN Citation.title AND
	            Paper.author CROWDJOIN Researcher.name AND
	            Paper.conference CROWDEQUAL "SIGMOD";`
	p, err := BuildPlan(mustSelect(t, q), d.Catalog, d.Oracle, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.S.Tables) != 4 { // 3 real + 1 constant pseudo-table
		t.Fatalf("tables = %v", p.S.Tables)
	}
	if p.S.Kind() != graph.Star {
		t.Fatalf("2J1S over the running example should be a star join, got %v", p.S.Kind())
	}
}

// TestCrowdEqualEdgeWeights: BuildPlan scores a CROWDEQUAL column
// against a constant it tokenises once; every edge must carry the
// float bits sim.Similarity gives row by row, rows below epsilon are
// dropped and CNULL/"" cells skipped.
func TestCrowdEqualEdgeWeights(t *testing.T) {
	d := dataset.GenPaper(dataset.Config{Seed: 3, Scale: 0.05})
	tb, _ := d.Catalog.Get("Paper")
	col := tb.Schema.MustColIndex("conference")
	tb.Rows[0][col].S = "" // an empty cell among the real values
	for _, f := range []sim.Func{sim.Gram2Jaccard, sim.TokenJaccard, sim.EditDistance} {
		cfg := PlanConfig{Sim: f, Epsilon: 0.3}
		p, err := BuildPlan(mustSelect(t, `SELECT * FROM Paper WHERE Paper.conference CROWDEQUAL "Sigmod  CONF";`),
			d.Catalog, d.Oracle, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]float64{}
		for r := 0; r < tb.Len(); r++ {
			v := tb.Cell(r, col).S
			if w := sim.Similarity(f, v, "Sigmod  CONF"); v != "" && w >= cfg.Epsilon {
				want[r] = w
			}
		}
		if len(want) == 0 || len(want) >= tb.Len()-1 {
			t.Fatalf("%v: %d of %d rows reach epsilon; the case should keep some and drop some", f, len(want), tb.Len())
		}
		if p.G.NumEdges() != len(want) {
			t.Fatalf("%v: %d edges, want %d", f, p.G.NumEdges(), len(want))
		}
		for id := 0; id < p.G.NumEdges(); id++ {
			e := p.G.Edge(id)
			if w, ok := want[p.G.RowOf(e.U)]; !ok || math.Float64bits(w) != math.Float64bits(e.W) {
				t.Fatalf("%v: edge on row %d has weight %v, want %v (present %v)", f, p.G.RowOf(e.U), e.W, w, ok)
			}
		}
	}
}

func TestBuildPlanErrors(t *testing.T) {
	d := dataset.RunningExample()
	cases := []string{
		`SELECT * FROM Ghost WHERE Ghost.a CROWDEQUAL 'x'`,
		`SELECT * FROM Paper, Paper WHERE Paper.title CROWDJOIN Paper.title`,
		`SELECT * FROM Paper, Citation WHERE Paper.ghost CROWDJOIN Citation.title`,
		`SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Researcher.name`,
		`SELECT * FROM Paper, Citation, University WHERE Paper.title CROWDJOIN Citation.title`,
	}
	for _, q := range cases {
		if _, err := BuildPlan(mustSelect(t, q), d.Catalog, d.Oracle, DefaultPlanConfig()); err == nil {
			t.Errorf("accepted bad query %q", q)
		}
	}
}

func TestEquiJoinEdgesPreColored(t *testing.T) {
	d := dataset.RunningExample()
	q := `SELECT * FROM Paper, Citation WHERE Paper.title = Citation.title`
	p, err := BuildPlan(mustSelect(t, q), d.Catalog, d.Oracle, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No identical titles exist between Paper and Citation in the
	// running example except none — equality is strict.
	for e := 0; e < p.G.NumEdges(); e++ {
		if p.G.Edge(e).Color != graph.Blue {
			t.Fatal("equi-join edges must be pre-colored blue")
		}
	}
}

func perfectPool(seed uint64, n int) *crowd.Pool {
	return crowd.NewPerfectPool(n, stats.NewRNG(seed))
}

func TestRunExpectationPerfectWorkers(t *testing.T) {
	p := examplePlan(t)
	rep, err := Run(context.Background(), p, Options{
		Strategy:   &cost.Expectation{},
		Redundancy: 5,
		Pool:       perfectPool(1, 30),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Recall < 0.99 || rep.Metrics.Precision < 0.99 {
		t.Fatalf("perfect workers should find exact answers: %+v", rep.Metrics)
	}
	if len(rep.Answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(rep.Answers))
	}
	if rep.Metrics.Tasks == 0 || rep.Metrics.Tasks > p.G.NumEdges() {
		t.Fatalf("tasks = %d of %d edges", rep.Metrics.Tasks, p.G.NumEdges())
	}
	if rep.Assignments != rep.Metrics.Tasks*5 {
		t.Fatalf("assignments = %d, want tasks*5", rep.Assignments)
	}
	if rep.HITs == 0 || rep.Dollars <= 0 {
		t.Fatal("pricing not computed")
	}
}

func TestRunSavesTasksVsTreeModel(t *testing.T) {
	// The headline claim: tuple-level optimization beats every tree
	// order on the running example.
	build := func() *Plan { return examplePlan(t) }

	pCDB := build()
	repCDB, err := Run(context.Background(), pCDB, Options{Strategy: &cost.Expectation{}, Redundancy: 1, Pool: perfectPool(2, 30)})
	if err != nil {
		t.Fatal(err)
	}

	pOpt := build()
	opt := baselines.NewTreeModel("OptTree", baselines.OptTreeOrder(pOpt.G, pOpt.Truth))
	repOpt, err := Run(context.Background(), pOpt, Options{Strategy: opt, Redundancy: 1, Pool: perfectPool(2, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if repCDB.Metrics.Tasks >= repOpt.Metrics.Tasks {
		t.Fatalf("CDB (%d tasks) should beat the optimal tree order (%d tasks)",
			repCDB.Metrics.Tasks, repOpt.Metrics.Tasks)
	}
	if repOpt.Metrics.Recall < 0.99 {
		t.Fatalf("OptTree with perfect workers should still find all answers: %+v", repOpt.Metrics)
	}
}

func TestRunTreeBaselinesFindAnswers(t *testing.T) {
	for _, name := range []string{"CrowdDB", "Qurk", "Deco"} {
		p := examplePlan(t)
		var order []int
		switch name {
		case "CrowdDB":
			order = baselines.CrowdDBOrder(p.S)
		case "Qurk":
			order = baselines.QurkOrder(p.S)
		default:
			order = baselines.DecoOrder(p.G)
		}
		rep, err := Run(context.Background(), p, Options{Strategy: baselines.NewTreeModel(name, order), Redundancy: 5, Pool: perfectPool(3, 30)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics.Recall < 0.99 {
			t.Fatalf("%s recall = %v", name, rep.Metrics.Recall)
		}
		if rep.Metrics.Rounds > len(p.S.Preds) {
			t.Fatalf("%s used %d rounds for %d predicates", name, rep.Metrics.Rounds, len(p.S.Preds))
		}
	}
}

func TestRunERBaselines(t *testing.T) {
	for _, mk := range []func() cost.Strategy{
		func() cost.Strategy { return baselines.NewTrans() },
		func() cost.Strategy { return baselines.NewACD() },
	} {
		p := examplePlan(t)
		strat := mk()
		rep, err := Run(context.Background(), p, Options{Strategy: strat, Redundancy: 5, Pool: perfectPool(4, 30)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics.Recall < 0.99 {
			t.Fatalf("%s recall = %v with perfect workers", strat.Name(), rep.Metrics.Recall)
		}
	}
}

func TestTransUsesMoreRoundsThanCDB(t *testing.T) {
	pT := examplePlan(t)
	repT, err := Run(context.Background(), pT, Options{Strategy: baselines.NewTrans(), Redundancy: 1, Pool: perfectPool(5, 30)})
	if err != nil {
		t.Fatal(err)
	}
	pC := examplePlan(t)
	repC, err := Run(context.Background(), pC, Options{Strategy: &cost.Expectation{}, Redundancy: 1, Pool: perfectPool(5, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if repT.Metrics.Rounds <= repC.Metrics.Rounds {
		t.Fatalf("Trans rounds (%d) should exceed CDB rounds (%d)", repT.Metrics.Rounds, repC.Metrics.Rounds)
	}
}

func TestRunMaxRoundsFlush(t *testing.T) {
	for _, maxRounds := range []int{1, 2, 3} {
		p := examplePlan(t)
		rep, err := Run(context.Background(), p, Options{
			Strategy:   &cost.Expectation{},
			Redundancy: 1,
			Pool:       perfectPool(6, 30),
			MaxRounds:  maxRounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics.Rounds > maxRounds {
			t.Fatalf("rounds = %d, limit %d", rep.Metrics.Rounds, maxRounds)
		}
		if rep.Metrics.Recall < 0.99 {
			t.Fatalf("flushing must still find all answers (maxRounds=%d): %+v", maxRounds, rep.Metrics)
		}
	}
}

func TestFewerRoundsAllowedMeansMoreTasks(t *testing.T) {
	// Fig. 22's tradeoff: a tighter latency constraint costs more tasks.
	run := func(maxRounds int) int {
		p := examplePlan(t)
		rep, err := Run(context.Background(), p, Options{Strategy: &cost.Expectation{}, Redundancy: 1, Pool: perfectPool(7, 30), MaxRounds: maxRounds})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Metrics.Tasks
	}
	oneRound := run(1)
	free := run(0)
	if oneRound < free {
		t.Fatalf("1-round flood (%d tasks) should not beat unconstrained (%d tasks)", oneRound, free)
	}
}

// TestBudgetRespectsLimit: a run whose account holds B tasks asks the
// crowd at most B, under the budget order and under the expected-yield
// order; its Report charges exactly the tasks the crowd was asked, and
// it is Capped exactly when the unbudgeted run asks more.
func TestBudgetRespectsLimit(t *testing.T) {
	for _, b := range []int{0, 1, 3, 7, 1000} {
		for _, order := range []func() cost.Strategy{
			func() cost.Strategy { return &cost.Budget{} },
			func() cost.Strategy { return &cost.Expectation{} },
		} {
			free, err := Run(context.Background(), examplePlan(t), Options{Strategy: order(), Redundancy: 1, Pool: perfectPool(3, 10)})
			if err != nil {
				t.Fatal(err)
			}
			store := meta.NewStore()
			rep, err := Run(context.Background(), examplePlan(t), Options{
				Strategy: order(), Redundancy: 1, Pool: perfectPool(3, 10), Meta: store, Account: NewAccount(b, Reliability{}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if asked := store.Tasks().Len(); asked > b || asked != rep.Metrics.Tasks {
				t.Fatalf("budget %d: asked %d tasks, the report charges %d", b, asked, rep.Metrics.Tasks)
			}
			if rep.Capped != (free.Metrics.Tasks > b) {
				t.Fatalf("budget %d: capped = %v, unbudgeted run asks %d", b, rep.Capped, free.Metrics.Tasks)
			}
		}
	}
}

// TestGreedyBudgetUnderAccount: the greedy baseline has no cap of its
// own; the statement's account stops it. Round by round it asks one
// task a round until the account is spent, and a flush, which proposes
// every unknown edge, is cut to the heaviest the account can pay for.
func TestGreedyBudgetUnderAccount(t *testing.T) {
	rep, err := Run(context.Background(), examplePlan(t), Options{Strategy: baselines.NewGreedyBudget(),
		Account: NewAccount(5, Reliability{}), Redundancy: 1, Pool: perfectPool(5, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if m := rep.Metrics; m.Tasks != 5 || m.Rounds != 5 || !rep.Capped {
		t.Fatalf("account of 5: %d tasks in %d rounds, capped = %v; want 5 in 5, capped", m.Tasks, m.Rounds, rep.Capped)
	}

	p := examplePlan(t)
	want := baselines.NewGreedyBudget().Flush(examplePlan(t).G)
	if len(want) <= 2 {
		t.Fatalf("the flush proposes %v: the case cannot show the cap", want)
	}
	rep, err = Run(context.Background(), p, Options{Strategy: baselines.NewGreedyBudget(), MaxRounds: 1,
		Account: NewAccount(2, Reliability{}), Redundancy: 1, Pool: perfectPool(5, 10)})
	if err != nil {
		t.Fatal(err)
	}
	var asked []int
	for e := 0; e < p.G.NumEdges(); e++ {
		if p.G.Edge(e).Color != graph.Unknown {
			asked = append(asked, e)
		}
	}
	slices.Sort(want[:2])
	if !slices.Equal(asked, want[:2]) || rep.Metrics.Rounds != 1 || !rep.Capped {
		t.Fatalf("flush under an account of 2 asked %v in %d rounds (capped = %v); want %v in 1", asked, rep.Metrics.Rounds, rep.Capped, want[:2])
	}
}

func TestRunBudgetStrategy(t *testing.T) {
	p := examplePlan(t)
	rep, err := Run(context.Background(), p, Options{Strategy: &cost.Budget{}, Account: NewAccount(6, Reliability{}), Redundancy: 1, Pool: perfectPool(8, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Tasks > 6 {
		t.Fatalf("budget overrun: %d tasks", rep.Metrics.Tasks)
	}
	// 6 tasks cover at most two of the three chains.
	if rep.Metrics.Recall < 1.0/3 {
		t.Fatalf("budgeted recall = %v, want at least one answer", rep.Metrics.Recall)
	}
	if rep.Metrics.Precision < 0.99 {
		t.Fatalf("budgeted precision = %v", rep.Metrics.Precision)
	}
}

func TestBudgetBeatsGreedyBaseline(t *testing.T) {
	// Fig. 18's claim: candidate-driven budget spending finds far more
	// answers than the weight-greedy depth-first baseline.
	d := dataset.GenPaper(dataset.Config{Seed: 7, Scale: 0.15})
	q := dataset.Queries("paper")["2J"]
	const budget = 200
	build := func() *Plan {
		p, err := BuildPlan(mustSelect(t, q), d.Catalog, d.Oracle, DefaultPlanConfig())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pC := build()
	repC, err := Run(context.Background(), pC, Options{Strategy: &cost.Budget{}, Account: NewAccount(budget, Reliability{}), Redundancy: 1, Pool: perfectPool(21, 10)})
	if err != nil {
		t.Fatal(err)
	}
	pB := build()
	repB, err := Run(context.Background(), pB, Options{Strategy: baselines.NewGreedyBudget(), Account: NewAccount(budget, Reliability{}), Redundancy: 1, Pool: perfectPool(21, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if repC.Metrics.Tasks > budget || repB.Metrics.Tasks > budget {
		t.Fatalf("budget overrun: CDB %d, baseline %d", repC.Metrics.Tasks, repB.Metrics.Tasks)
	}
	if repC.Metrics.Recall <= repB.Metrics.Recall {
		t.Fatalf("budgeted CDB recall (%v) should beat the baseline (%v)",
			repC.Metrics.Recall, repB.Metrics.Recall)
	}
	if repC.Metrics.Recall < 0.5 {
		t.Fatalf("budgeted CDB recall = %v, want a solid majority of answers at B=200", repC.Metrics.Recall)
	}
}

func TestCDBPlusBeatsMajorityVotingWithBadWorkers(t *testing.T) {
	// Mediocre crowd: CDB+ (EM + assignment) must beat plain majority
	// voting on F-measure, averaged over repetitions (Fig. 9's gap).
	const reps = 15
	var mvAgg, plusAgg stats.Agg
	for i := 0; i < reps; i++ {
		pMV := examplePlan(t)
		repMV, err := Run(context.Background(), pMV, Options{
			Strategy:   &cost.Expectation{},
			Redundancy: 3,
			Pool:       crowd.NewPool(25, 0.7, 0.1, stats.NewRNG(uint64(100+i))),
			Quality:    MajorityVoting,
		})
		if err != nil {
			t.Fatal(err)
		}
		mvAgg.Add(repMV.Metrics)

		pPlus := examplePlan(t)
		repPlus, err := Run(context.Background(), pPlus, Options{
			Strategy:   &cost.Expectation{},
			Redundancy: 3,
			Pool:       crowd.NewPool(25, 0.7, 0.1, stats.NewRNG(uint64(100+i))),
			Quality:    CDBPlus,
		})
		if err != nil {
			t.Fatal(err)
		}
		plusAgg.Add(repPlus.Metrics)
	}
	_, _, _, _, mvF1 := mvAgg.Mean()
	_, _, _, _, plusF1 := plusAgg.Mean()
	if plusF1 < mvF1-0.02 {
		t.Fatalf("CDB+ F1 (%v) should not trail majority voting (%v)", plusF1, mvF1)
	}
}

func TestProjectAnswer(t *testing.T) {
	d := dataset.RunningExample()
	q := `SELECT Researcher.name, Citation.number
	      FROM Paper, Researcher, Citation, University
	      WHERE Paper.author CROWDJOIN Researcher.name AND
	            Paper.title CROWDJOIN Citation.title AND
	            Researcher.affiliation CROWDJOIN University.name;`
	p, err := BuildPlan(mustSelect(t, q), d.Catalog, d.Oracle, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), p, Options{Strategy: &cost.Expectation{}, Redundancy: 5, Pool: perfectPool(9, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Answers) != 3 {
		t.Fatalf("answers = %d", len(rep.Answers))
	}
	names := map[string]bool{}
	for _, a := range rep.Answers {
		row, err := p.ProjectAnswer(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != 2 {
			t.Fatalf("projected row = %v", row)
		}
		names[row[0]] = true
	}
	for _, want := range []string{"Bruce W Croft", "H. Jagadish", "S. Chaudhuri"} {
		if !names[want] {
			t.Fatalf("missing expected researcher %q in %v", want, names)
		}
	}
}

func TestProjectAnswerStar(t *testing.T) {
	p := examplePlan(t)
	rep, err := Run(context.Background(), p, Options{Strategy: &cost.Expectation{}, Redundancy: 5, Pool: perfectPool(10, 30)})
	if err != nil {
		t.Fatal(err)
	}
	row, err := p.ProjectAnswer(rep.Answers[0])
	if err != nil {
		t.Fatal(err)
	}
	// SELECT *: 3 (Paper) + 3 (Researcher) + 2 (Citation) + 3 (University).
	if len(row) != 11 {
		t.Fatalf("star projection has %d columns, want 11: %v", len(row), row)
	}
}

func TestRunOptionValidation(t *testing.T) {
	p := examplePlan(t)
	if _, err := Run(context.Background(), p, Options{Pool: perfectPool(1, 5)}); err == nil || !strings.Contains(err.Error(), "Strategy") {
		t.Fatal("missing strategy should error")
	}
	if _, err := Run(context.Background(), p, Options{Strategy: &cost.Expectation{}}); err == nil || !strings.Contains(err.Error(), "Pool") {
		t.Fatal("missing pool should error")
	}
}

func TestGeneratedDatasetEndToEnd(t *testing.T) {
	// Integration: small generated paper dataset, 2J query, CDB vs
	// CrowdDB cost with perfect workers.
	d := dataset.GenPaper(dataset.Config{Seed: 42, Scale: 0.06})
	q := dataset.Queries("paper")["2J"]
	build := func() *Plan {
		p, err := BuildPlan(mustSelect(t, q), d.Catalog, d.Oracle, DefaultPlanConfig())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pC := build()
	if len(pC.TrueAnswerKeys()) == 0 {
		t.Skip("generated instance has no answers at this scale/seed")
	}
	repC, err := Run(context.Background(), pC, Options{Strategy: &cost.Expectation{}, Redundancy: 1, Pool: perfectPool(11, 30)})
	if err != nil {
		t.Fatal(err)
	}
	pT := build()
	repT, err := Run(context.Background(), pT, Options{Strategy: baselines.NewTreeModel("CrowdDB", baselines.CrowdDBOrder(pT.S)), Redundancy: 1, Pool: perfectPool(11, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if repC.Metrics.Recall < 0.99 || repT.Metrics.Recall < 0.99 {
		t.Fatalf("perfect-worker recall: CDB %v, CrowdDB %v", repC.Metrics.Recall, repT.Metrics.Recall)
	}
	if repC.Metrics.Tasks > repT.Metrics.Tasks {
		t.Fatalf("CDB (%d) asked more than CrowdDB (%d)", repC.Metrics.Tasks, repT.Metrics.Tasks)
	}
}

func TestCrossMarketRouting(t *testing.T) {
	// Two markets; the router deals tasks across both (the paper's
	// cross-market HIT deployment).
	rng := stats.NewRNG(31)
	amt := crowd.NewMarket("AMT", true, crowd.NewPerfectPool(10, rng.Split()))
	cf := crowd.NewMarket("CrowdFlower", false, crowd.NewPerfectPool(10, rng.Split()))
	p := examplePlan(t)
	rep, err := Run(context.Background(), p, Options{
		Strategy:   &cost.Expectation{},
		Redundancy: 3,
		Pool:       crowd.NewPerfectPool(10, rng.Split()),
		Router:     crowd.NewRouter(amt, cf),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Recall < 0.99 {
		t.Fatalf("routed execution recall = %v", rep.Metrics.Recall)
	}
	if rep.PerMarket["AMT"] == 0 || rep.PerMarket["CrowdFlower"] == 0 {
		t.Fatalf("tasks not spread across markets: %v", rep.PerMarket)
	}
	if rep.PerMarket["AMT"]+rep.PerMarket["CrowdFlower"] != rep.Metrics.Tasks {
		t.Fatalf("market counts %v do not add up to %d tasks", rep.PerMarket, rep.Metrics.Tasks)
	}
}

func TestERSideOracle(t *testing.T) {
	p := examplePlan(t)
	side := p.ERSideOracle(0.4)
	pairs := side(0, nil) // Paper.author ~ Researcher.name predicate
	if len(pairs) == 0 {
		t.Fatal("expected within-side similar pairs among the running example names")
	}
	sawMatch := false
	for _, sp := range pairs {
		if sp.U == sp.V {
			t.Fatal("self pair in side dedup")
		}
		if g1, g2 := p.G.TableOf(sp.U), p.G.TableOf(sp.V); g1 != g2 {
			t.Fatal("side pair spans two tables")
		}
		if sp.Match {
			sawMatch = true
		}
	}
	// "Michael J. Franklin"/"Michael Franklin" (same entity) should be
	// a within-side match across the Paper/Researcher name columns...
	// they live in different tables, so within-side matches come from
	// same-column duplicates; at minimum the call must be well-formed.
	_ = sawMatch
	// Out-of-range predicate and selection predicates yield nothing.
	if got := side(99, nil); got != nil {
		t.Fatalf("bad pred should yield nil, got %v", got)
	}
}

func TestERSideOracleRespectsAlive(t *testing.T) {
	p := examplePlan(t)
	side := p.ERSideOracle(0.4)
	empty := make([]bool, p.G.NumVertices()) // nothing alive
	if pairs := side(0, empty); len(pairs) != 0 {
		t.Fatalf("no alive vertices should mean no side pairs, got %d", len(pairs))
	}
}

func TestExactOracle(t *testing.T) {
	o := ExactOracle{}
	if !o.JoinMatch("A", "x", "B", "y", " MIT ", "mit") {
		t.Fatal("case/space-folded equality should match")
	}
	if o.JoinMatch("A", "x", "B", "y", "MIT", "Stanford") {
		t.Fatal("different values should not match")
	}
	if !o.SelMatch("A", "x", "usa", "USA") || o.SelMatch("A", "x", "UK", "USA") {
		t.Fatal("SelMatch broken")
	}
}

func TestQualityModeString(t *testing.T) {
	if MajorityVoting.String() != "majority-voting" || CDBPlus.String() != "cdb+" {
		t.Fatal("mode strings broken")
	}
}

func TestCDBPlusEarlyStopSavesAssignments(t *testing.T) {
	// With perfect workers and a 0.95 confidence threshold, CDB+ stops
	// collecting answers for a task once it is confident, so the total
	// assignment count stays below the k-per-task ceiling.
	p := examplePlan(t)
	rep, err := Run(context.Background(), p, Options{
		Strategy:   &cost.Expectation{},
		Redundancy: 5,
		Quality:    CDBPlus,
		Pool:       perfectPool(41, 40),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Assignments >= rep.Metrics.Tasks*5 {
		t.Fatalf("CDB+ used %d assignments for %d tasks — early stop never fired",
			rep.Assignments, rep.Metrics.Tasks)
	}
	if rep.Metrics.Recall < 0.99 {
		t.Fatalf("recall = %v", rep.Metrics.Recall)
	}
}

func TestMetadataRecording(t *testing.T) {
	p := examplePlan(t)
	store := meta.NewStore()
	rep, err := Run(context.Background(), p, Options{
		Strategy:   &cost.Expectation{},
		Redundancy: 3,
		Pool:       perfectPool(51, 30),
		Meta:       store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.Tasks().Len() != rep.Metrics.Tasks {
		t.Fatalf("recorded %d tasks, executor reports %d", store.Tasks().Len(), rep.Metrics.Tasks)
	}
	if store.Assignments().Len() != rep.Assignments {
		t.Fatalf("recorded %d assignments, executor reports %d", store.Assignments().Len(), rep.Assignments)
	}
	st := store.ComputeStats()
	if st.PerKind[meta.TaskJoin] != rep.Metrics.Tasks {
		t.Fatalf("all running-example tasks are joins: %v", st.PerKind)
	}
	// Every task has a verdict after the run.
	for _, row := range store.Tasks().Rows {
		if row[5].S != "match" && row[5].S != "nonmatch" {
			t.Fatalf("task without verdict: %v", row)
		}
	}
	// Match rate equals the fraction of asked edges that are truly blue
	// (perfect workers).
	blueAsked := 0
	for e := 0; e < p.G.NumEdges(); e++ {
		if p.G.Edge(e).Color == graph.Blue {
			blueAsked++
		}
	}
	if want := float64(blueAsked) / float64(rep.Metrics.Tasks); st.MatchRate != want {
		t.Fatalf("match rate = %v, want %v", st.MatchRate, want)
	}
}

func TestMetadataRecordingCDBPlus(t *testing.T) {
	p := examplePlan(t)
	store := meta.NewStore()
	_, err := Run(context.Background(), p, Options{
		Strategy:   &cost.Expectation{},
		Redundancy: 3,
		Quality:    CDBPlus,
		Pool:       crowd.NewPool(25, 0.85, 0.05, stats.NewRNG(61)),
		Meta:       store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if store.Tasks().Len() == 0 || store.Assignments().Len() == 0 {
		t.Fatal("CDB+ path did not record metadata")
	}
	// EM quality estimates must have been written back.
	sawEstimate := false
	for _, row := range store.Workers().Rows {
		if row[2].F != 0.7 {
			sawEstimate = true
		}
	}
	if !sawEstimate {
		t.Fatal("no EM quality estimate reached the worker relation")
	}
}

func TestCalibrationDoesNotBreakExecution(t *testing.T) {
	// Calibration re-weights edges mid-query; answers must be unchanged
	// with a perfect crowd and cost must stay sane.
	d := dataset.GenPaper(dataset.Config{Seed: 11, Scale: 0.08})
	q := dataset.Queries("paper")["2J"]
	build := func() *Plan {
		p, err := BuildPlan(mustSelect(t, q), d.Catalog, d.Oracle, DefaultPlanConfig())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pPlain := build()
	plain, err := Run(context.Background(), pPlain, Options{Strategy: &cost.Expectation{}, Redundancy: 1, Pool: perfectPool(71, 20)})
	if err != nil {
		t.Fatal(err)
	}
	pCal := build()
	cal, err := Run(context.Background(), pCal, Options{Strategy: &cost.Expectation{}, Redundancy: 1, Pool: perfectPool(71, 20), Calibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	if cal.Metrics.Recall < 0.99 || plain.Metrics.Recall < 0.99 {
		t.Fatalf("recall: plain %v calibrated %v", plain.Metrics.Recall, cal.Metrics.Recall)
	}
	// Calibration should not blow the cost up (within 25% either way is
	// acceptable on this instance; the ablation bench tracks the rest).
	lo, hi := plain.Metrics.Tasks*3/4, plain.Metrics.Tasks*5/4
	if cal.Metrics.Tasks < lo || cal.Metrics.Tasks > hi {
		t.Fatalf("calibrated cost %d far from plain %d", cal.Metrics.Tasks, plain.Metrics.Tasks)
	}
}

// pureResolver answers every task through crowd.PureVerdict, the scheme
// plan.PureResolver and the engine's coalescer share.
type pureResolver struct {
	seed uint64
	pool *crowd.Pool
}

func (r pureResolver) Resolve(_ context.Context, reqs []TaskRequest) (map[int]TaskVerdict, error) {
	out := make(map[int]TaskVerdict, len(reqs))
	for _, req := range reqs {
		value, conf, asks := crowd.PureVerdict(r.seed, r.pool, req.Key, req.Truth, req.Prior, req.K)
		out[req.Edge] = TaskVerdict{Value: value, Confidence: conf, Assignments: asks}
	}
	return out, nil
}

// TestMetadataRecordsTheAskingRound: every crowdsourcing path — majority
// voting, CDB+, a shared resolver (pureResolver, plan.PureResolver's
// scheme) and the fault-tolerant transport — records each task with the
// 1-based round that asked it, the RoundUpdate.Round that round
// completes as: the recorded rounds span 1…Rounds and each holds
// exactly its update's Tasks.
func TestMetadataRecordsTheAskingRound(t *testing.T) {
	for _, path := range []string{"majority", "cdb+", "resolver", "transport"} {
		t.Run(path, func(t *testing.T) {
			p := examplePlan(t)
			opts := Options{
				Strategy:   &cost.Expectation{},
				Redundancy: 3,
				Pool:       crowd.NewPool(25, 0.85, 0.05, stats.NewRNG(61)),
			}
			switch path {
			case "cdb+":
				opts.Quality = CDBPlus
			case "resolver":
				opts.Resolver = pureResolver{seed: 9, pool: opts.Pool}
			case "transport":
				var tp *crowd.Transport
				opts, tp = asyncSetup(3, nil)
				defer tp.Close()
			}
			store := meta.NewStore()
			var updates []RoundUpdate
			opts.Meta = store
			opts.Progress = func(u RoundUpdate) { updates = append(updates, u) }
			rep, err := Run(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Metrics.Rounds < 2 || len(updates) != rep.Metrics.Rounds {
				t.Fatalf("%d rounds, %d updates: the case needs a multi-round query", rep.Metrics.Rounds, len(updates))
			}
			perRound := map[int64]int{}
			for _, row := range store.Tasks().Rows {
				perRound[row[6].I]++
			}
			if len(perRound) != rep.Metrics.Rounds {
				t.Fatalf("tasks recorded in rounds %v, want 1…%d", perRound, rep.Metrics.Rounds)
			}
			for _, u := range updates {
				if got := perRound[int64(u.Round)]; got != u.Tasks {
					t.Fatalf("round %d: %d tasks recorded, update says %d (all rounds %v)", u.Round, got, u.Tasks, perRound)
				}
			}
		})
	}
}
