package cdb

import (
	"fmt"

	"cdb/internal/cql"
	"cdb/internal/engine"
	"cdb/internal/plan"
)

// Plan is a query plan as a value: the statistics-free greedy
// planner's decision for one SELECT, reported without issuing any
// crowd work. It carries the join order, per-step predicted candidate
// edges and similarity-mass histograms, early-exit points (a plan-time
// proof of zero answers means zero further HITs), and the planner's
// own estimate of tasks saved versus statement order. Its JSON schema
// is the wire format of EXPLAIN / POST /v1/explain, pinned by a
// golden-file test in client/wire_test.go.
type Plan = plan.Explained

// PlanStep is one step of a Plan.
type PlanStep = plan.Step

// WithPlanner toggles the statistics-free greedy multi-join planner:
// SELECTs run their joins cheapest-first, with plan-time early exits,
// and each Result carries its executed Plan. The planned order is a
// leading key of the default labeling order, so it composes with the
// rest of the configuration — CDB+, markets, the fault-tolerant
// transport — and only a BUDGET clause takes precedence
// (DESIGN.md §17).
func WithPlanner(on bool) Option {
	return func(c *Config) { c.Planner = on }
}

// Explain plans q without executing it — and without issuing a single
// crowd assignment — and returns the Plan. q may be a SELECT or an
// EXPLAIN SELECT (the verb unwraps to the same thing); any other
// statement fails with ErrEngineUnsupported, since only SELECTs are
// plannable. The Plan describes the graph and, when it is planned, the
// order an execution on this DB follows; Greedy on the wire reports
// whether that order is the greedy one.
func (db *DB) Explain(q string) (*Plan, error) {
	st, err := cql.Parse(q)
	if err != nil {
		return nil, err
	}
	return db.explain(st)
}

// explain plans st, a SELECT or an EXPLAIN SELECT, as DB.Exec would run
// it.
func (db *DB) explain(st cql.Statement) (*Plan, error) {
	s, err := engine.Plannable(st)
	if err != nil {
		return nil, err
	}
	return db.selectRequest(s).Explain()
}

// execExplain serves the EXPLAIN CQL verb on the Exec path.
func (db *DB) execExplain(e *cql.Explain) (*Result, error) {
	ex, err := db.explain(e)
	if err != nil {
		return nil, err
	}
	return &Result{
		Plan: ex,
		Message: fmt.Sprintf("plan %s: %d predicted tasks (fixed order %d), 0 crowd assignments",
			ex.JoinOrder, ex.PredictedTasks, ex.FixedTasks),
	}, nil
}
