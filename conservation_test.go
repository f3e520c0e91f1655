package cdb

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/meta"
)

// The running example's join, the same join grouped by a dirty column
// and ordered by it, its BUDGET below what the join spends unbudgeted,
// and the tight retry budget of the fault paths.
const (
	exampleJoin    = `SELECT Paper.conference FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title;`
	exampleGrouped = `SELECT Paper.conference FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title GROUP BY Paper.conference;`
	exampleOrdered = `SELECT Paper.conference FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title ORDER BY Paper.conference;`
	exampleBudget  = 5
	tightRetries   = 4
)

// budgeted appends BUDGET exampleBudget to q.
func budgeted(q string) string { return strings.Replace(q, ";", " BUDGET 5;", 1) }

// conservationPaths are DB.Exec's crowd paths, the planner's order and
// the fault-tolerant transport with no fault injected; the fault paths
// run under a tight retry budget.
var conservationPaths = map[string][]Option{
	"majority":     {WithWorkers(30, 0.8, 0.1)},
	"markets":      {WithMarkets(twoMarkets...)},
	"calibrated":   {WithWorkers(30, 0.8, 0.1), WithCalibration(true)},
	"cdb+":         {WithWorkers(30, 0.8, 0.1), WithQualityControl(true)},
	"planned":      {WithWorkers(30, 0.8, 0.1), WithPlanner(true)},
	"transport":    {WithWorkers(30, 0.8, 0.1), WithReliability(ReliabilityPolicy{})},
	"faults-drops": {WithFaults(FaultConfig{Seed: 7, DropRate: 0.3}), tightRetryBudget},
	"faults-stragglers-duplicates": {
		WithFaults(FaultConfig{Seed: 13, StragglerRate: 0.6, DuplicateRate: 0.2}), tightRetryBudget},
	"faults-lost": {WithFaults(FaultConfig{Seed: 21, DropRate: 1}), tightRetryBudget},
	"faults-cdb+": {WithQualityControl(true), WithFaults(FaultConfig{Seed: 9, DropRate: 0.2, StragglerRate: 0.3}), tightRetryBudget},
}

var tightRetryBudget = WithReliability(ReliabilityPolicy{RetryBudget: tightRetries})

// TestStatementConservation: a statement is one account, however many
// runs it takes. On every DB.Exec crowd path, for a plain SELECT, a
// GROUP BY and an ORDER BY, with and without a BUDGET below the join's
// unbudgeted spend, the metadata store holds exactly the tasks and
// assignments the Stats charge, the progress hook reports each of the
// Stats' rounds once, the HITs are each run's pricing of its own
// assignments, the Stats stay within the BUDGET, and the reissues of
// all runs together stay within the retry budget. A served budgeted
// GROUP BY or ORDER BY (the resolver path) stays within its BUDGET too.
func TestStatementConservation(t *testing.T) {
	statements := []string{exampleJoin, exampleGrouped, exampleOrdered}
	for _, q := range statements {
		statements = append(statements, budgeted(q))
	}
	for name, path := range conservationPaths {
		for _, q := range statements {
			t.Run(name+"/"+q, func(t *testing.T) {
				db := Open(append([]Option{WithDataset("example", 0, 1), WithSeed(3), WithMetadata()}, path...)...)
				st, err := cql.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				req := db.selectRequest(st.(*cql.Select))
				updates := 0
				req.Exec.Progress = func(exec.RoundUpdate) { updates++ }
				ans, err := engine.RunSelect(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				stats, store := ans.Result().Stats, db.Metadata().ComputeStats()
				if store.Tasks != stats.Tasks || store.Assignments != stats.Assignments {
					t.Errorf("store holds %d tasks / %d assignments, Stats charge %d / %d",
						store.Tasks, store.Assignments, stats.Tasks, stats.Assignments)
				}
				if updates != stats.Rounds {
					t.Errorf("%d progress updates for %d rounds", updates, stats.Rounds)
				}
				if hits := runHITs(db.Metadata()); hits != stats.HITs {
					t.Errorf("runs price their assignments at %d HITs, Stats charge %d", hits, stats.HITs)
				}
				if strings.Contains(q, "BUDGET") && stats.Tasks > exampleBudget {
					t.Errorf("BUDGET %d spent %d tasks", exampleBudget, stats.Tasks)
				}
				if strings.HasPrefix(name, "faults") && ans.Report.Reliability.Reissued > tightRetries {
					t.Errorf("reissued %d, retry budget %d", ans.Report.Reliability.Reissued, tightRetries)
				}
			})
		}
	}
	for _, q := range []string{budgeted(exampleGrouped), budgeted(exampleOrdered)} {
		t.Run("served/"+q, func(t *testing.T) {
			res := engineResult(t, Open(WithDataset("example", 0, 1), WithSeed(3)), func(e *Engine) (*Future, error) {
				return e.Submit(context.Background(), q)
			})
			if res.Stats.Tasks > exampleBudget {
				t.Errorf("served BUDGET %d spent %d tasks", exampleBudget, res.Stats.Tasks)
			}
		})
	}
}

// runHITs prices the store's assignments run by run, as the executor
// prices them. Each run of the example's statements asks under one
// predicate label of its own — the join's, the grouped column's, the
// ordered column's — so a label stands for its run.
func runHITs(store *meta.Store) int {
	label := map[int64]string{}
	for _, row := range store.Tasks().Rows {
		label[row[0].I] = row[2].S
	}
	asks := map[string]int{}
	for _, row := range store.Assignments().Rows {
		asks[label[row[0].I]]++
	}
	hits := 0
	for _, n := range asks {
		hits += crowd.DefaultPricing.HITs(n)
	}
	return hits
}

// TestBudgetBoundsGroupBy: the running example's GROUP BY under BUDGET
// 5 spends what its join leaves, which is nothing, so its groups are the
// exact values and the result is Partial for the budget; so does its
// ORDER BY, whose rows keep the join's order. The same statement
// without either spends its 5 tasks unflagged, as it always has.
func TestBudgetBoundsGroupBy(t *testing.T) {
	db := Open(WithDataset("example", 0, 1), WithSeed(3))
	plain := db.MustExec(budgeted(exampleJoin))
	grouped := Open(WithDataset("example", 0, 1), WithSeed(3)).MustExec(budgeted(exampleGrouped))
	if s := plain.Stats; s.Tasks != 5 || s.Rounds != 5 || s.Assignments != 25 || s.Partial {
		t.Fatalf("plain: %+v, want 5 tasks, 5 rounds, 25 assignments, complete", s)
	}
	if s := grouped.Stats; s.Tasks > exampleBudget || !s.Partial || s.Reason != "budget" {
		t.Fatalf("grouped: %+v, want at most %d tasks, partial for the budget", s, exampleBudget)
	}
	if len(grouped.Rows) != len(plain.Rows) {
		t.Fatalf("%d groups of %d rows: a grouping with nothing left must keep the exact values apart", len(grouped.Rows), len(plain.Rows))
	}
	ordered := Open(WithDataset("example", 0, 1), WithSeed(3)).MustExec(budgeted(exampleOrdered))
	if s := ordered.Stats; s.Tasks > exampleBudget || !s.Partial || s.Reason != "budget" {
		t.Fatalf("ordered: %+v, want at most %d tasks, partial for the budget", s, exampleBudget)
	}
	if !reflect.DeepEqual(ordered.Rows, plain.Rows) {
		t.Fatalf("ordered rows %v, join rows %v: a sort with nothing left must keep its input order", ordered.Rows, plain.Rows)
	}
}
