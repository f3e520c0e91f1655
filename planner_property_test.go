package cdb_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cdb"
	"cdb/internal/plan"
	"cdb/internal/stats"
)

// loadCase replays a generated catalog into a DB through the public
// API (CREATE TABLE + Insert), so the planned executor sees exactly
// what the generator built.
func loadCase(t *testing.T, db *cdb.DB, c plan.Case) {
	t.Helper()
	for _, name := range c.Catalog.Names() {
		tb := c.Catalog.MustGet(name)
		cols := make([]string, len(tb.Schema.Columns))
		for i, col := range tb.Schema.Columns {
			cols[i] = col.Name + " varchar(16)"
		}
		db.MustExec(fmt.Sprintf("CREATE TABLE %s (%s);", name, strings.Join(cols, ", ")))
		for _, row := range tb.Rows {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = v.String()
			}
			if err := db.Insert(name, vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPlannerProperties is the randomized property suite of the greedy
// planner over 3–6-table chain and star schemas, run on the serving
// engine, whose coalescer resolves every task content-purely — which is
// what makes the two orders' rows comparable:
//
//	(a) greedy-planned rows are bit-identical, order included, to the
//	    unplanned order's under the same seed,
//	(c) a planted-empty predicate issues zero assignments under both
//	    orders, and EXPLAIN reports the early exit with zero tasks.
//
// (The greedy-vs-statement-order cost bound (b) went with statement
// order.)
func TestPlannerProperties(t *testing.T) {
	gen := stats.NewRNG(0xCDB9)
	cases := 40
	if testing.Short() {
		cases = 8
	}
	sawEarlyExit := false
	for i := 0; i < cases; i++ {
		nTables := 3 + gen.Intn(4)
		c := plan.RandomCase(gen, nTables)
		seed := gen.Uint64()
		t.Run(fmt.Sprintf("case%02d_t%d", i, nTables), func(t *testing.T) {
			open := func(planner bool) *cdb.Engine {
				db := cdb.Open(
					cdb.WithSeed(seed),
					cdb.WithWorkers(25, 0.85, 0.1),
					cdb.WithPlanner(planner),
				)
				loadCase(t, db, c)
				eng, err := db.NewEngine()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() })
				return eng
			}
			run := func(eng *cdb.Engine) *cdb.Result {
				fut, err := eng.Submit(context.Background(), c.Query)
				if err != nil {
					t.Fatal(err)
				}
				res, err := fut.Result(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			greedy := open(true)
			rg, ru := run(greedy), run(open(false))

			// (a) Bit-identical answers, including row order.
			if !reflect.DeepEqual(rg.Rows, ru.Rows) {
				t.Fatalf("greedy answers diverge from the unplanned order\n query: %s\n  greedy: %v\nunplanned: %v",
					c.Query, rg.Rows, ru.Rows)
			}

			// The executed plan rides on the planned Result only.
			if rg.Plan == nil || !rg.Plan.Greedy {
				t.Fatalf("greedy result carries no plan: %+v", rg.Plan)
			}
			if ru.Plan != nil {
				t.Fatalf("unplanned result carries a plan: %+v", ru.Plan)
			}

			// (c) Empty intermediates: zero assignments and zero answers
			// under either order, and EXPLAIN proves it before spending
			// anything.
			if c.EmptyPred >= 0 {
				sawEarlyExit = true
				for name, res := range map[string]*cdb.Result{"greedy": rg, "unplanned": ru} {
					if res.Stats.Assignments != 0 {
						t.Errorf("empty pred %d: %s still issued %d assignments", c.EmptyPred, name, res.Stats.Assignments)
					}
					if len(res.Rows) != 0 {
						t.Errorf("empty pred %d: %s got %d answer rows", c.EmptyPred, name, len(res.Rows))
					}
				}
				ex, err := greedy.Explain(c.Query)
				if err != nil {
					t.Fatalf("explain: %v", err)
				}
				if !ex.EarlyExit || ex.PredictedTasks != 0 {
					t.Errorf("explain missed the early exit: exit=%v predicted=%d", ex.EarlyExit, ex.PredictedTasks)
				}
				if !strings.HasSuffix(ex.JoinOrder, "→∅") {
					t.Errorf("join order %q lacks the early-exit marker", ex.JoinOrder)
				}
			}
		})
	}
	if !sawEarlyExit && !testing.Short() {
		t.Error("generator produced no early-exit case; property (c) untested")
	}
}

// TestExplainVerbZeroSpend pins the EXPLAIN CQL verb: it returns the
// plan, spends nothing, and rejects non-SELECT targets with the typed
// unsupported error.
func TestExplainVerbZeroSpend(t *testing.T) {
	db := cdb.Open(cdb.WithSeed(7), cdb.WithWorkers(10, 0.9, 0.05), cdb.WithPlanner(true))
	db.MustExec(`CREATE TABLE A (x varchar(16), y varchar(16));`)
	db.MustExec(`CREATE TABLE B (x varchar(16), y varchar(16));`)
	for i := 0; i < 4; i++ {
		if err := db.Insert("A", fmt.Sprintf("u%d", i), fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("B", fmt.Sprintf("k%02d", i), fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	res := db.MustExec(`EXPLAIN SELECT * FROM A, B WHERE A.y CROWDJOIN B.x;`)
	if res.Plan == nil {
		t.Fatal("EXPLAIN returned no plan")
	}
	if res.Stats.Assignments != 0 || res.Stats.HITs != 0 {
		t.Errorf("EXPLAIN spent crowd work: %+v", res.Stats)
	}
	if len(res.Rows) != 0 {
		t.Errorf("EXPLAIN returned rows: %v", res.Rows)
	}
	if res.Plan.PredictedTasks <= 0 {
		t.Errorf("predicted tasks = %d, want > 0", res.Plan.PredictedTasks)
	}

	if _, err := db.Exec(`EXPLAIN CREATE TABLE C (z varchar(8));`); err == nil {
		t.Error("EXPLAIN CREATE TABLE succeeded, want unsupported error")
	} else if !strings.Contains(err.Error(), "not plannable") {
		t.Errorf("unexpected error: %v", err)
	}

	if _, err := db.Exec(`EXPLAIN EXPLAIN SELECT * FROM A;`); err == nil {
		t.Error("nested EXPLAIN parsed, want parse error")
	}
}
