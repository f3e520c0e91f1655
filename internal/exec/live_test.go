package exec_test

import (
	"context"
	"fmt"
	"math"
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
	"cdb/internal/sim"
	"cdb/internal/stats"
	"cdb/internal/table"
)

func parseSelect(t testing.TB, q string) *cql.Select {
	t.Helper()
	st, err := cql.Parse(q)
	if err != nil {
		t.Fatalf("%v: %s", err, q)
	}
	return st.(*cql.Select)
}

// memoJoiner is a Joiner that runs each distinct join once.
func memoJoiner() func(sim.Func, []string, []string, float64) []sim.Pair {
	memo := map[string][]sim.Pair{}
	return func(f sim.Func, l, r []string, eps float64) []sim.Pair {
		h := uint64(len(l))
		for _, col := range [][]string{l, r} {
			for _, v := range col {
				h = h*1099511628211 ^ stats.HashString(v)
			}
		}
		key := fmt.Sprint(f, eps, len(l), len(r), h)
		if _, ok := memo[key]; !ok {
			memo[key] = sim.Join(f, l, r, eps)
		}
		return memo[key]
	}
}

// possiblyLive is the reference for the bind's masks, computed from the
// full plan's graph: start with every tuple, drop one that on some
// predicate of its table has no edge to a tuple still in, repeat.
func possiblyLive(p *exec.Plan) []bool {
	g := p.G
	live := make([]bool, g.NumVertices())
	for v := range live {
		live[v] = true
	}
	for changed := true; changed; {
		changed = false
		for v := range live {
			if !live[v] {
				continue
			}
			for _, pred := range g.TablePreds(g.TableOf(v)) {
				ok := false
				for _, e := range g.EdgesAt(v, pred) {
					other := g.Edge(int(e)).U
					if other == v {
						other = g.Edge(int(e)).V
					}
					ok = ok || live[other]
				}
				if !ok {
					live[v], changed = false, true
					break
				}
			}
		}
	}
	return live
}

// checkLiveSubgraph: live holds exactly full's edges with a possibly-live
// endpoint, in full's order, weight, colour and truth bit-equal. It
// returns, per edge of live, the edge of full it is.
func checkLiveSubgraph(t *testing.T, label string, full, live *exec.Plan) []int {
	t.Helper()
	alive := possiblyLive(full)
	seeded := false
	for _, pred := range full.Stmt.Where {
		seeded = seeded || pred.Kind != cql.CrowdJoin
	}
	if !seeded {
		// Nothing but CROWDJOINs: no mask to start from, the bind is the full one.
		for v := range alive {
			alive[v] = true
		}
	} else if full.G.S.Kind() != graph.Cyclic {
		// On a tree, possibly live is "has a valid edge at birth".
		valid := make([]bool, len(alive))
		for e := 0; e < full.G.NumEdges(); e++ {
			if full.G.IsValid(e) {
				valid[full.G.Edge(e).U], valid[full.G.Edge(e).V] = true, true
			}
		}
		if !reflect.DeepEqual(valid, alive) {
			t.Fatalf("%s: the possibly-live tuples are not the ones with a valid edge", label)
		}
	}
	var toFull []int
	for e := 0; e < full.G.NumEdges(); e++ {
		fe := full.G.Edge(e)
		if !alive[fe.U] && !alive[fe.V] {
			continue
		}
		id := len(toFull)
		toFull = append(toFull, e)
		if id >= live.G.NumEdges() {
			continue // counted below
		}
		le := live.G.Edge(id)
		if le.Pred != fe.Pred || le.U != fe.U || le.V != fe.V || le.Color != fe.Color ||
			math.Float64bits(le.W) != math.Float64bits(fe.W) || live.Truth[id] != full.Truth[e] {
			t.Fatalf("%s: live edge %d = %+v (truth %v), want full edge %d = %+v (truth %v)", label, id, le, live.Truth[id], e, fe, full.Truth[e])
		}
	}
	if live.G.NumEdges() != len(toFull) || len(live.Truth) != len(toFull) {
		t.Fatalf("%s: live plan binds %d edges (%d truths), want the %d of the full plan's %d that touch a possibly-live tuple",
			label, live.G.NumEdges(), len(live.Truth), len(toFull), full.G.NumEdges())
	}
	if live.Candidates < live.G.NumEdges() || full.Candidates < full.G.NumEdges() {
		t.Fatalf("%s: candidates %d / %d below edges %d / %d", label, live.Candidates, full.Candidates, live.G.NumEdges(), full.G.NumEdges())
	}
	return toFull
}

// bindThree binds q in full, LiveOnly over a Joiner's whole lists, and
// LiveOnly with masked joins, checks both pruned plans against the full
// one and returns the full and the masked plan with the id mapping.
func bindThree(t *testing.T, label, q string, cat *table.Catalog, orc exec.Oracle, f sim.Func, joiner func(sim.Func, []string, []string, float64) []sim.Pair) (full, live *exec.Plan, toFull []int) {
	t.Helper()
	stmt := parseSelect(t, q)
	bind := func(liveOnly, join bool) *exec.Plan {
		cfg := exec.PlanConfig{Sim: f, Epsilon: 0.3, LiveOnly: liveOnly}
		if join {
			cfg.Joiner = joiner
		}
		p, err := exec.BuildPlan(stmt, cat, orc, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return p
	}
	full = bind(false, true)
	checkLiveSubgraph(t, label+" (joiner)", full, bind(true, true))
	live = bind(true, false)
	return full, live, checkLiveSubgraph(t, label+" (masked)", full, live)
}

// withSelections appends predicates to a statement that ends in ";".
func withSelections(q string, preds ...string) string {
	return strings.TrimSuffix(q, ";") + " AND " + strings.Join(preds, " AND ") + ";"
}

// handCases are the shapes the generators do not make: CNULL cells in a
// joined column (under NoSim, the one function that would pair them), a
// traditional join with a `=` selection, and a cyclic structure.
func handCases(t *testing.T) []struct {
	label, q string
	cat      *table.Catalog
	f        sim.Func
} {
	rng := stats.NewRNG(3)
	words := []string{"alpha beta", "alpha betas", "gamma delta", "gamma deltas", "epsilon", "zeta eta"}
	mk := func(cat *table.Catalog, name string, rows int, nulls bool) {
		tb := table.New(table.Schema{Name: name, Columns: []table.Column{
			{Name: "k", Kind: table.String}, {Name: "n", Kind: table.String}, {Name: "c", Kind: table.String}}})
		for r := 0; r < rows; r++ {
			n := table.SV(words[rng.Intn(len(words))])
			if nulls && rng.Bool(0.3) {
				n = table.CNull(table.String)
			}
			tb.MustAppend(table.Tuple{table.SV(fmt.Sprintf("key%d", rng.Intn(5))), n, table.SV(fmt.Sprintf("c%d", rng.Intn(3)))})
		}
		cat.Register(tb)
	}
	newCat := func(nulls bool) *table.Catalog {
		cat := table.NewCatalog()
		mk(cat, "L", 14, nulls)
		mk(cat, "R", 11, nulls)
		mk(cat, "S", 9, nulls)
		return cat
	}
	type hc = struct {
		label, q string
		cat      *table.Catalog
		f        sim.Func
	}
	return []hc{
		{"cnull/nosim", `SELECT * FROM L, R, S WHERE L.n CROWDJOIN R.n AND R.n CROWDJOIN S.n AND L.c = 'c1';`, newCat(true), sim.NoSim},
		{"cnull/gram", `SELECT * FROM L, R, S WHERE L.n CROWDJOIN R.n AND R.n CROWDJOIN S.n AND S.c CROWDEQUAL 'c2';`, newCat(true), sim.Gram2Jaccard},
		{"traditional", `SELECT * FROM L, R, S WHERE L.k = R.k AND R.n CROWDJOIN S.n AND L.c = 'c0';`, newCat(false), sim.Gram2Jaccard},
		{"traditional-only-seed", `SELECT * FROM L, R, S WHERE L.k = R.k AND R.n CROWDJOIN S.n;`, newCat(false), sim.Gram2Jaccard},
		{"cyclic", `SELECT * FROM L, R, S WHERE L.n CROWDJOIN R.n AND R.n CROWDJOIN S.n AND S.n CROWDJOIN L.n AND L.c CROWDEQUAL 'c1';`, newCat(false), sim.Gram2Jaccard},
		{"cyclic/edit", `SELECT * FROM L, R, S WHERE L.n CROWDJOIN R.n AND R.n CROWDJOIN S.n AND S.n CROWDJOIN L.n AND R.c = 'c2';`, newCat(false), sim.EditDistance},
		{"empty", `SELECT * FROM L, R, S WHERE L.n CROWDJOIN R.n AND R.n CROWDJOIN S.n AND L.c = 'nobody';`, newCat(false), sim.Gram2Jaccard},
	}
}

// randomCases are plan.RandomCase's 3–6-table chains and stars with a
// selection or two put on them.
func randomCases(n int) []struct {
	label, q string
	cat      *table.Catalog
} {
	rng := stats.NewRNG(11)
	var out []struct {
		label, q string
		cat      *table.Catalog
	}
	for i := 0; i < n; i++ {
		c := plan.RandomCase(rng, 3+i%4)
		var sels []string
		switch i % 3 {
		case 0:
			sels = []string{`T0.b CROWDEQUAL 'va01'`}
		case 1:
			sels = []string{fmt.Sprintf(`T%d.a CROWDEQUAL 'v%c00'`, c.Tables-1, 'a'+byte(c.Tables-2)), `T0.a = 'u1'`}
		case 2:
			sels = []string{`T1.a CROWDEQUAL 'va03'`, `T0.b CROWDEQUAL 'va02'`}
		}
		out = append(out, struct {
			label, q string
			cat      *table.Catalog
		}{fmt.Sprintf("random %d (%d tables, star=%v, empty=%d)", i, c.Tables, c.Star, c.EmptyPred), withSelections(c.Query, sels...), c.Catalog})
	}
	return out
}

// benchmarkStatements are the ten Table 4 shapes of a dataset with
// every selection constant the repository's benchmark draws (and, for
// Award.place, the city names it skips for matching nothing).
func benchmarkStatements(name string) (labels, stmts []string) {
	conferences := []string{"cikm", "edbt", "icde", "kdd", "sigir", "sigmod", "vldb", "www"}
	countries := []string{"Canada", "China", "Germany", "Japan", "UK", "USA"}
	places := []string{"Athens", "Atlanta", "Austin", "Berlin", "Boston", "Brussels", "Cairo", "Chengdu",
		"Cleveland", "Delhi", "Detroit", "Dublin", "Glasgow", "Havana", "Lima", "Lisbon",
		"London", "Los Angeles", "Madrid", "Miami", "Moscow", "Mumbai", "New York", "Osaka",
		"Oslo", "Ottawa", "Paris", "Prague", "Rome", "Seattle", "Seoul", "Vienna"}
	for _, shape := range dataset.QueryLabels() {
		q := dataset.Queries(name)[shape]
		first, second := []string{""}, []string{""}
		if strings.Contains(q, `"sigmod"`) {
			first = conferences
		} else if strings.Contains(q, `"Los Angeles"`) {
			first = places
		}
		if strings.Contains(q, `"USA"`) {
			second = countries
		}
		for _, a := range first {
			for _, b := range second {
				s := strings.NewReplacer(`"sigmod"`, `"`+a+`"`, `"Los Angeles"`, `"`+a+`"`, `"USA"`, `"`+b+`"`).Replace(q)
				labels = append(labels, fmt.Sprintf("%s %s %s %s", name, shape, a, b))
				stmts = append(stmts, s)
			}
		}
	}
	return labels, stmts
}

// TestLiveOnlyBindsTheLiveTouchingSubgraph: see checkLiveSubgraph, over
// the hand-made cases, the randomized schemas and every statement the
// benchmark can draw at its scale; a statement of CROWDJOINs only binds
// in full.
func TestLiveOnlyBindsTheLiveTouchingSubgraph(t *testing.T) {
	for _, c := range handCases(t) {
		full, live, _ := bindThree(t, c.label, c.q, c.cat, exec.ExactOracle{}, c.f, memoJoiner())
		if c.label == "empty" && (live.G.NumEdges() != 0 || full.G.NumEdges() == 0) {
			t.Errorf("empty: %d of %d edges bound, want none of some", live.G.NumEdges(), full.G.NumEdges())
		}
		if c.label == "cyclic" && full.G.S.Kind() != graph.Cyclic {
			t.Error("cyclic: the structure is a tree")
		}
	}
	pruned := 0
	for _, c := range randomCases(60) {
		full, live, _ := bindThree(t, c.label, c.q, c.cat, exec.ExactOracle{}, sim.Gram2Jaccard, memoJoiner())
		if live.G.NumEdges() < full.G.NumEdges() {
			pruned++
		}
	}
	if pruned < 20 {
		t.Errorf("only %d of 60 random cases dropped an edge: the selections select nothing", pruned)
	}
	for _, name := range []string{"paper", "award"} {
		d, err := dataset.ByName(name, dataset.Config{Seed: 1, Scale: 0.12})
		if err != nil {
			t.Fatal(err)
		}
		joiner := memoJoiner()
		labels, stmts := benchmarkStatements(name)
		if testing.Short() {
			labels, stmts = labels[:40], stmts[:40]
		}
		for i, q := range stmts {
			full, live, _ := bindThree(t, labels[i], q, d.Catalog, d.Oracle, sim.Gram2Jaccard, joiner)
			if sels := strings.Count(q, "CROWDEQUAL"); sels == 0 && live.G.NumEdges() != full.G.NumEdges() {
				t.Errorf("%s: %d of %d edges bound; a statement without a selection binds in full", labels[i], live.G.NumEdges(), full.G.NumEdges())
			} else if sels == 2 && 4*live.G.NumEdges() > 3*full.G.NumEdges() {
				t.Errorf("%s: %d of %d edges bound; two selections leave most of a graph dead", labels[i], live.G.NumEdges(), full.G.NumEdges())
			}
		}
	}
}

// recorder remembers the batches an Expectation returned.
type recorder struct {
	*cost.Expectation
	batches [][]int
}

func (r *recorder) NextRound(g *graph.Graph) []int {
	b := r.Expectation.NextRound(g)
	r.batches = append(r.batches, append([]int(nil), b...))
	return b
}

// budgetRecorder remembers the batches a Budget returned.
type budgetRecorder struct {
	*cost.Budget
	batches [][]int
}

func (r *budgetRecorder) NextRound(g *graph.Graph) []int {
	b := r.Budget.NextRound(g)
	r.batches = append(r.batches, append([]int(nil), b...))
	return b
}

// TestLiveOnlyRunsTheFullBindsRun: Algorithm 1 under cost.Expectation —
// plain and with a predicate-priority key — and under
// cost.Budget asks the same edges round by round over the pruned plan as
// over the full one, from the same worker draws, and reports the same
// answers and counts.
func TestLiveOnlyRunsTheFullBindsRun(t *testing.T) {
	type kase struct {
		label, q string
		cat      *table.Catalog
		orc      exec.Oracle
	}
	var cases []kase
	for _, c := range randomCases(24) {
		cases = append(cases, kase{c.label, c.q, c.cat, exec.ExactOracle{}})
	}
	for _, c := range handCases(t) {
		if c.f == sim.Gram2Jaccard {
			cases = append(cases, kase{c.label, c.q, c.cat, exec.ExactOracle{}})
		}
	}
	for _, name := range []string{"paper", "award"} {
		d, err := dataset.ByName(name, dataset.Config{Seed: 1, Scale: 0.06})
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range []string{"2J1S", "3J1S", "3J2S"} {
			cases = append(cases, kase{name + " " + shape, dataset.Queries(name)[shape], d.Catalog, d.Oracle})
		}
	}
	asked := 0
	for _, c := range cases {
		for _, mode := range []string{"plain", "priority", "budget 10", "budget 40"} {
			label := c.label + " / " + mode
			budget := 0
			fmt.Sscanf(mode, "budget %d", &budget)
			run := func(p *exec.Plan) (*exec.Report, [][]int) {
				rec := &recorder{Expectation: &cost.Expectation{}}
				if mode == "priority" {
					for pred := range p.S.Preds {
						rec.Priority = append(rec.Priority, len(p.S.Preds)-1-pred)
					}
				}
				var strategy cost.Strategy = rec
				batches := &rec.batches
				var acct *exec.Account
				if budget > 0 {
					brec := &budgetRecorder{Budget: &cost.Budget{}}
					strategy, batches = brec, &brec.batches
					acct = exec.NewAccount(budget, exec.Reliability{})
				}
				rep, err := exec.Run(context.Background(), p, exec.Options{
					Strategy: strategy,
					Account:  acct,
					Pool:     crowd.NewPool(30, 0.8, 0.1, stats.NewRNG(5)),
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return rep, *batches
			}
			// A run colours its plan: bind a fresh pair per mode.
			full, live, toFull := bindThree(t, label, c.q, c.cat, c.orc, sim.Gram2Jaccard, memoJoiner())
			wantRep, wantBatches := run(full)
			gotRep, gotBatches := run(live)
			mapped := func(ids []int) []int {
				var out []int
				for _, id := range ids {
					out = append(out, toFull[id])
				}
				return out
			}
			if len(gotBatches) != len(wantBatches) {
				t.Fatalf("%s: %d rounds selected, full bind %d", label, len(gotBatches), len(wantBatches))
			}
			for r := range wantBatches {
				if got := mapped(gotBatches[r]); !reflect.DeepEqual(got, wantBatches[r]) {
					t.Fatalf("%s: round %d asks %v, full bind %v", label, r+1, got, wantBatches[r])
				}
				asked += len(wantBatches[r])
			}
			if len(gotRep.Answers) != len(wantRep.Answers) {
				t.Fatalf("%s: %d answers, full bind %d", label, len(gotRep.Answers), len(wantRep.Answers))
			}
			for i, a := range wantRep.Answers {
				if got := gotRep.Answers[i]; !reflect.DeepEqual(got.Assign, a.Assign) || !reflect.DeepEqual(mapped(got.Edges), a.Edges) {
					t.Fatalf("%s: answer %d = %+v, full bind %+v", label, i, got, a)
				}
			}
			if gotRep.Metrics != wantRep.Metrics || gotRep.Assignments != wantRep.Assignments ||
				gotRep.HITs != wantRep.HITs || !reflect.DeepEqual(gotRep.Confidence, wantRep.Confidence) {
				t.Fatalf("%s: metrics %+v, %d assignments; full bind %+v, %d", label,
					gotRep.Metrics, gotRep.Assignments, wantRep.Metrics, wantRep.Assignments)
			}
		}
	}
	if asked < 1000 {
		t.Errorf("%d tasks asked over all cases: too few to tell the runs apart", asked)
	}
}
