package engine

import (
	"fmt"

	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/plan"
)

// QueryStats summarizes one execution's crowd interaction (the public
// cdb.Stats).
//
// The json tags are the wire schema of the HTTP serving layer
// (cmd/cdbd) and are pinned by a golden-file test: renaming a tag is a
// breaking protocol change and fails CI.
type QueryStats struct {
	Tasks       int     `json:"tasks"`       // crowd tasks issued (the paper's cost metric)
	Rounds      int     `json:"rounds"`      // crowd interaction rounds (latency metric)
	Assignments int     `json:"assignments"` // individual worker answers
	HITs        int     `json:"hits"`        // priced HITs (10 tasks per HIT)
	Dollars     float64 `json:"dollars"`     // simulated spend ($0.1 per HIT)
	Precision   float64 `json:"precision"`   // vs the oracle's ground truth
	Recall      float64 `json:"recall"`
	F1          float64 `json:"f1"`

	// Reliability telemetry, populated on the fault-tolerant transport
	// (WithFaults / WithReliability). Partial marks a degraded result,
	// and Reason names its first cause: the query was cancelled or ran
	// out of time ("canceled", "deadline"), lost tasks after its retries
	// ("tasks-lost"), or its BUDGET ran out before its GROUP BY had
	// grouped or its ORDER BY had sorted ("budget"; one entity may then
	// span rows, and the rows are only partly ordered). A budgeted
	// SELECT without either is never partial for its BUDGET: fewer
	// answers within B is what BUDGET asks for. The counters attribute
	// where answers went.
	Partial         bool   `json:"partial,omitempty"`
	Reason          string `json:"reason,omitempty"`
	Lost            int    `json:"lost,omitempty"`             // tasks that never got any answer
	Retried         int    `json:"retried,omitempty"`          // tasks reissued after missing a deadline
	Hedged          int    `json:"hedged,omitempty"`           // tasks speculatively reissued before the deadline
	Late            int    `json:"late,omitempty"`             // answers that arrived after their round deadline
	Duplicates      int    `json:"duplicates,omitempty"`       // redundant deliveries deduplicated away
	RoundsTruncated int    `json:"rounds_truncated,omitempty"` // rounds discarded by cancellation or deadline

	// Sharing telemetry, populated when the query ran through an Engine:
	// tasks that attached to another query's in-flight HIT, and tasks
	// answered from the shared verdict cache. Assignments/HITs/Dollars
	// above still charge the full redundancy to this query either way —
	// sharing changes what the platform does, not what a query observes.
	Coalesced   int `json:"coalesced,omitempty"`
	CachedTasks int `json:"cached_tasks,omitempty"`
}

// Result is the outcome of one statement (the public cdb.Result).
//
// Like QueryStats, the json tags are the serving layer's wire schema,
// pinned by a golden-file test.
type Result struct {
	// Columns and Rows hold the projected answers for SELECT; for DDL
	// and collection statements Rows is empty and Message explains what
	// happened.
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Message string     `json:"message,omitempty"`
	Stats   QueryStats `json:"stats"`
	// Confidence holds one entry per row of Rows on the fault-tolerant
	// transport: the weakest per-edge posterior backing that answer
	// (1.0 when every supporting verdict is certain). Nil on the
	// synchronous path.
	Confidence []float64 `json:"confidence,omitempty"`
	// Trace is the statement's span tree when tracing is enabled via
	// WithObserver or WithTracing; nil otherwise. Never serialized on
	// the wire — traces are process-local diagnostics.
	Trace *obs.Trace `json:"-"`
	// RequestID is the serving tier's correlation ID: the
	// X-CDB-Request-ID the query arrived under (caller-supplied or
	// minted by cdbd), echoed here so the response body, trace spans
	// and query-log lines of one request all join on the same key.
	// Empty for queries executed without one.
	RequestID string `json:"request_id,omitempty"`
	// Plan is the executed (or, for EXPLAIN, the would-be) query plan.
	// Populated when the greedy planner is enabled (WithPlanner /
	// Config.Planner) or the statement was an EXPLAIN; nil otherwise,
	// so legacy wire fixtures are unaffected.
	Plan *plan.Explained `json:"plan,omitempty"`
}

// Answer is one SELECT's outcome as the pipeline produces it: the
// projected rows plus the executor's Report, which is what the answer
// cache, the journal and introspection keep. Result is its public view.
type Answer struct {
	Columns []string
	Rows    [][]string
	Report  *exec.Report
	// Trace is the query's span tree when the run was traced.
	Trace *obs.Trace
	// RequestID is the serving tier's correlation ID the query ran
	// under (empty without one); per handle even when the Answer rows
	// are shared.
	RequestID string
	// Plan is the executed plan of a planner-ordered run; nil otherwise.
	Plan *plan.Explained
}

// Result builds the public view of the answer. Every Result of an
// executed, cached, attached or replayed SELECT — DB.Exec's and the
// engine's alike — comes from here.
func (a *Answer) Result() *Result {
	rep := a.Report
	res := &Result{
		Columns: a.Columns,
		Rows:    a.Rows,
		Stats: QueryStats{
			Tasks:       rep.Metrics.Tasks,
			Rounds:      rep.Metrics.Rounds,
			Assignments: rep.Assignments,
			HITs:        rep.HITs,
			Dollars:     rep.Dollars,
			Precision:   rep.Metrics.Precision,
			Recall:      rep.Metrics.Recall,
			F1:          rep.Metrics.F1(),

			Partial:         rep.Reliability.Partial,
			Reason:          rep.Reliability.Reason,
			Lost:            rep.Reliability.Lost,
			Retried:         rep.Reliability.Retried,
			Hedged:          rep.Reliability.Hedged,
			Late:            rep.Reliability.Late,
			Duplicates:      rep.Reliability.Duplicates,
			RoundsTruncated: rep.Reliability.RoundsTruncated,

			Coalesced:   rep.Coalesced,
			CachedTasks: rep.CachedTasks,
		},
		Confidence: rep.Confidence,
		Trace:      a.Trace,
		RequestID:  a.RequestID,
		Plan:       a.Plan,
	}
	res.Message = fmt.Sprintf("%d answers, %d tasks, %d rounds", len(res.Rows), res.Stats.Tasks, res.Stats.Rounds)
	if res.Stats.Partial {
		res.Message += fmt.Sprintf(" (partial: %s)", res.Stats.Reason)
	}
	if shared := res.Stats.Coalesced + res.Stats.CachedTasks; shared > 0 {
		res.Message += fmt.Sprintf(" (%d shared)", shared)
	}
	return res
}
