package engine

// The one SELECT pipeline (DESIGN.md §11): DB.Exec and the serving
// engine both fill a SelectRequest and call RunSelect, which binds the
// tuple graph, scopes it to a shard, picks the labeling order, runs
// Algorithm 1's round loop and projects the rows. What differs between
// callers is a field of the request; no stage asks who is calling.

import (
	"context"
	"fmt"
	"time"

	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/plan"
	"cdb/internal/table"
)

// Source is what a SELECT binds against: catalog, ground-truth oracle,
// and graph instantiation (estimator, ε, optional shared sim-join cache).
type Source struct {
	Catalog *table.Catalog
	Oracle  exec.Oracle
	exec.PlanConfig
}

// bind instantiates sel's tuple graph, as a plan span of tr (nil-safe).
func (src Source) bind(sel *cql.Select, tr *obs.Tracer) (*exec.Plan, error) {
	start := time.Now()
	span := tr.Begin(obs.SpanPlan)
	p, err := exec.BuildPlan(sel, src.Catalog, src.Oracle, src.PlanConfig)
	if err == nil {
		tr.Mutate(span, func(sp *obs.Span) { sp.Edges, sp.Candidates = p.G.NumEdges(), p.Candidates })
	}
	tr.End(span)
	mPhasePlan.Observe(time.Since(start).Seconds())
	return p, err
}

// Explain plans st — a SELECT or an EXPLAIN SELECT, anything else is
// ErrUnsupported — without executing it: similarity joins only, zero
// crowd assignments. The result's Greedy flag reports whether execution
// under cfg would follow the greedy order.
func (src Source) Explain(st cql.Statement, cfg plan.Config) (*plan.Explained, error) {
	if ex, ok := st.(*cql.Explain); ok {
		st = ex.Target
	}
	sel, ok := st.(*cql.Select)
	if !ok {
		return nil, fmt.Errorf("%w: %T is not plannable; EXPLAIN takes a SELECT", ErrUnsupported, st)
	}
	p, err := src.bind(sel, nil)
	if err != nil {
		return nil, err
	}
	return plan.Describe(p, plan.Greedy(p, 0), cfg.Greedy), nil
}

// SelectRequest is one SELECT's trip through the pipeline.
type SelectRequest struct {
	Source
	Stmt *cql.Select

	// Owned, when set, scopes the run to the components a cluster shard
	// owns (by canonical key); the Answer then carries the Shard sidecar.
	Owned func(componentKey string) bool

	// Strategy builds the configured labeling order for the bound plan;
	// nil means the paper's expectation-based order — and is how a caller
	// says so: a set Strategy binds every candidate (see liveOnly).
	Strategy func(*exec.Plan) cost.Strategy
	// Planner turns on planned execution, subject to chooseOrder's rules.
	Planner plan.Config
	// PureSeed seeds the content-pure resolver a planned run needs when
	// Exec.Resolver is not already one; called only then.
	PureSeed func() uint64
	// Transport opens the per-query fault-tolerant transport (nil, or
	// returning nil, keeps the synchronous path; only nil also keeps the
	// pruned bind). RunSelect closes it.
	Transport func() *crowd.Transport

	// Exec is the executor configuration every order shares; the
	// pipeline fills in Strategy and Transport.
	Exec exec.Options

	// Planned, when set, runs between planning and the first round with
	// the bound plan and the planner's decision (nil unless planned).
	Planned func(*exec.Plan, *plan.Decision)
}

// chooseOrder picks the labeling order of one run. A planned join order
// and the expected-yield order are keys of one cost.Expectation, the
// budget order its own cost.Strategy; this is the only place that
// decides between them, and the table is the only place features
// constrain each other:
//
//	BUDGET n    × planner        budget wins: the run follows cost.Budget's spend-capped order
//	transport   × planner        transport wins: the planner's pure resolver would shadow it
//	shard scope × planner        configured order: a shard's round structure must match the fleet's
//	planner     × transitivity   compose: one strategy, keys priority → expected yield → Eq. 1
//
//	bind scope  × all of these   live-touching subgraph only under the expected-yield and budget orders —
//	                             plain or with the closure, which read no pair between two dead tuples —
//	                             and the full candidate set for everyone else: see liveOnly
//
// The configured strategy and the transport are built — in that order —
// before the planner may replace the former: building either can draw
// from the caller's RNG, and the draw order is part of what makes equal
// seeds replay equal answers.
func (req *SelectRequest) chooseOrder(p *exec.Plan) (exec.Options, *plan.Decision) {
	opts := req.Exec
	switch {
	case req.Stmt.Budget > 0:
		opts.Strategy = cost.NewBudget(req.Stmt.Budget)
	case req.Strategy != nil:
		opts.Strategy = req.Strategy(p)
	default:
		opts.Strategy = &cost.Expectation{}
	}
	if req.Transport != nil {
		opts.Transport = req.Transport()
	}
	planned := req.Planner.Greedy || req.Planner.FixedOrder
	if !planned || req.Stmt.Budget > 0 || opts.Transport != nil || req.Owned != nil {
		return opts, nil
	}
	var decision *plan.Decision
	if req.Planner.Greedy {
		decision = plan.Greedy(p, 0)
	} else {
		decision = plan.Fixed(p, 0)
	}
	opts.Strategy = decision.Strategy(p)
	if opts.Resolver == nil {
		// Content-pure verdicts are what make reordering
		// answer-preserving; the seed is drawn the same way for the
		// greedy and fixed orders so equal seeds compare the two over
		// identical crowds.
		opts.Resolver = &plan.PureResolver{Seed: req.PureSeed(), Pool: opts.Pool}
	}
	return opts, decision
}

// liveOnly is the bind-scope row of chooseOrder's table, decided before
// the bind from what chooseOrder will decide after it: the graph may
// leave out the pairs between two tuples that cannot be in an answer
// (exec.PlanConfig.LiveOnly) exactly when the labeling order will be a
// bare cost.Expectation or BUDGET n's cost.Budget. A budget's candidates
// are embeddings over non-red edges, which a pair between two dead
// tuples is in none of, and its heaviest-first ties break by edge id,
// which the pruned bind renumbers in order: it runs the full bind's run.
// Everyone else reads the plan by edge id or by whole candidate set: a
// configured strategy (MinCut's sampler draws once per edge id, the tree
// baselines ask dead pairs by definition), a shard scope (the component
// partition and its keys), a fault-tolerant transport (the injector
// judges by task id), and the planner, which prices every candidate —
// its steps' candidate counts, histograms and survivor counts are on the
// wire and equal EXPLAIN's, which binds in full. A request field that is
// a constructor counts as set: its maker passes nil when it configures
// none.
func (req *SelectRequest) liveOnly() bool {
	return req.Strategy == nil && req.Transport == nil && req.Owned == nil &&
		!req.Planner.Greedy && !req.Planner.FixedOrder
}

// RunSelect executes one SELECT through the pipeline. Cancellation is
// honored at crowd-round boundaries (see exec.Run).
func RunSelect(ctx context.Context, req *SelectRequest) (*Answer, error) {
	src := req.Source
	src.LiveOnly = req.liveOnly()
	p, err := src.bind(req.Stmt, req.Exec.Trace)
	if err != nil {
		return nil, err
	}
	var scope *exec.ShardScope
	if req.Owned != nil {
		scope = exec.RestrictToOwned(p, req.Owned)
	}
	opts, decision := req.chooseOrder(p)
	if opts.Transport != nil {
		defer opts.Transport.Close()
	}
	if req.Planned != nil {
		req.Planned(p, decision)
	}
	rep, err := exec.Run(ctx, p, opts)
	if err != nil {
		return nil, err
	}

	ans := &Answer{Columns: p.ProjectionColumns(), Report: rep}
	for _, a := range rep.Answers {
		row, err := p.ProjectAnswer(a)
		if err != nil {
			return nil, err
		}
		ans.Rows = append(ans.Rows, row)
	}
	if scope != nil {
		tt, tc := scope.TruthCounts(p)
		ans.Shard = &exec.ShardInfo{
			Components:      scope.OwnedComponents,
			TotalComponents: scope.TotalComponents,
			MergeKeys:       exec.MergeKeys(p, rep.Answers),
			TruthTotal:      tt,
			TruthCorrect:    tc,
		}
	}
	if decision != nil {
		ans.Plan = plan.Describe(p, decision, req.Planner.Greedy)
	}
	return ans, nil
}
