package engine

// The one SELECT pipeline (DESIGN.md §11): DB.Exec and the serving
// engine both fill a SelectRequest and call RunSelect, which decides the
// labeling order, binds the tuple graph that order reads, builds the
// order, runs Algorithm 1's round loop and projects the rows. What
// differs between callers is a field of the request; no stage asks who
// is calling.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"cdb/internal/baselines"
	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/exec"
	"cdb/internal/graph"
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

// Plannable unwraps st to the SELECT an EXPLAIN describes: a SELECT or
// an EXPLAIN SELECT; anything else is ErrUnsupported.
func Plannable(st cql.Statement) (*cql.Select, error) {
	if ex, ok := st.(*cql.Explain); ok {
		st = ex.Target
	}
	sel, ok := st.(*cql.Select)
	if !ok {
		return nil, fmt.Errorf("%w: %T is not plannable; EXPLAIN takes a SELECT", ErrUnsupported, st)
	}
	return sel, nil
}

// SelectRequest is one SELECT's trip through the pipeline.
type SelectRequest struct {
	Source
	Stmt *cql.Select

	// Strategy, when set, builds the labeling order for the bound plan:
	// one of §6's competitors, which only cdbench configures. nil leaves
	// the order to the statement and Planner (see order).
	Strategy func(*exec.Plan) cost.Strategy
	// Planner turns on the greedy planned order, subject to order's
	// rules.
	Planner bool
	// Transport opens the per-query fault-tolerant transport; nil keeps
	// the synchronous path. A set constructor counts as a transport when
	// the order is decided, before it is called. RunSelect closes it.
	Transport func() *crowd.Transport

	// Exec is the executor configuration every order shares; the
	// pipeline fills in Strategy, Transport and the statement's Account.
	Exec exec.Options

	// Planned, when set, runs between planning and the first round with
	// the bound plan and the planner's decision (nil unless planned).
	Planned func(*exec.Plan, *plan.Decision)
}

// order is the labeling order of one run.
type order int

const (
	byExpectedYield order = iota // cost.Expectation, Eq. 1's order
	byBudget                     // BUDGET n's cost.Budget
	byConfigured                 // the request's Strategy
	byGreedyPlan                 // the planner's greedy order: a leading key of cost.Expectation
)

// order decides the labeling order of a run from request fields alone,
// before the bind, in one precedence: a configured strategy, else
// BUDGET's cost.Budget, else the planner's greedy order, else expected
// yield. A planned join order and the expected-yield order are keys of
// one cost.Expectation; whichever order runs, the statement's
// exec.Account caps its tasks. This is the only place that decides
// between them, and the table is the only place features constrain each
// other:
//
//	strategy    × anything       the configured strategy is the order, over the full bind (cdbench
//	                             only: MinCut's sampler draws per edge id, the tree and ER baselines
//	                             ask dead pairs by definition); the account caps it
//	BUDGET n    × planner        budget wins: the run follows cost.Budget's order, the account caps its spend
//	BUDGET n    × GROUP BY       one cap: the grouping spends what the join left; a cut grouping is
//	                             Partial, reason budget
//	BUDGET n    × ORDER BY       one cap: the sort spends what the join and the grouping left; a cut
//	                             sort keeps its unsplit parts in input order and is Partial,
//	                             reason budget
//	GROUP BY    × ORDER BY       compose: the grouping runs first, the sort orders its groups
//	planner     × crowd path     compose: the planned order is a key, the verdicts come from the
//	                             run's own crowd (transport, CDB+, markets or the pool)
//	bind scope  × other orders   the live-touching subgraph — see scoped
//
// A request field that is a constructor counts as set: its maker passes
// nil when it configures none.
func (req *SelectRequest) order() order {
	switch {
	case req.Strategy != nil:
		return byConfigured
	case req.Stmt.Budget > 0:
		return byBudget
	case req.Planner:
		return byGreedyPlan
	}
	return byExpectedYield
}

// scoped is the Source a run under o binds against: with
// exec.PlanConfig.LiveOnly, the bind-scope row of order's table.
func (req *SelectRequest) scoped(o order) Source {
	src := req.Source
	src.LiveOnly = o != byConfigured
	return src
}

// build makes the executor options of a run under o over the bound plan:
// the statement's account, capped at its BUDGET, then the strategy o
// uses, then the transport. Each request constructor can draw from the
// caller's RNG, so this order is part of what makes equal seeds replay
// equal answers, and a constructor the order does not use is not called.
func (req *SelectRequest) build(p *exec.Plan, o order) (exec.Options, *plan.Decision) {
	opts := req.Exec
	tasks := math.MaxInt
	if req.Stmt.Budget > 0 {
		tasks = req.Stmt.Budget
	}
	opts.Account = exec.NewAccount(tasks, opts.Reliability)
	var decision *plan.Decision
	switch o {
	case byBudget:
		opts.Strategy = &cost.Budget{}
	case byConfigured:
		opts.Strategy = req.Strategy(p)
	case byGreedyPlan:
		decision = plan.Greedy(p, 0)
		opts.Strategy = decision.Strategy(p)
	default:
		opts.Strategy = &cost.Expectation{}
	}
	if req.Transport != nil {
		opts.Transport = req.Transport()
	}
	return opts, decision
}

// Explain plans the request's statement without executing it: it binds
// the graph a run binds, similarity joins only, and calls no
// constructor of the request, so it issues zero crowd assignments and
// draws nothing from the caller's RNG. It describes the greedy order;
// the result's Greedy flag reports whether a run follows it.
func (req *SelectRequest) Explain() (*plan.Explained, error) {
	o := req.order()
	p, err := req.scoped(o).bind(req.Stmt, nil)
	if err != nil {
		return nil, err
	}
	return plan.Describe(p, plan.Greedy(p, 0), o == byGreedyPlan), nil
}

// RunSelect executes one SELECT through the pipeline, its GROUP BY and
// then its ORDER BY included. Cancellation is honored at crowd-round
// boundaries (see exec.Run).
func RunSelect(ctx context.Context, req *SelectRequest) (*Answer, error) {
	o := req.order()
	p, err := req.scoped(o).bind(req.Stmt, req.Exec.Trace)
	if err != nil {
		return nil, err
	}
	columns := p.ProjectionColumns()
	grouped, ordered := -1, -1
	if ref := req.Stmt.GroupBy; ref != nil {
		if grouped, err = columnIndex(columns, *ref); err != nil {
			return nil, err
		}
	}
	if ref := req.Stmt.OrderBy; ref != nil {
		if ordered, err = columnIndex(columns, *ref); err != nil {
			return nil, err
		}
	}
	opts, decision := req.build(p, o)
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

	ans := &Answer{Columns: columns, Report: rep}
	for _, a := range rep.Answers {
		row, err := p.ProjectAnswer(a)
		if err != nil {
			return nil, err
		}
		ans.Rows = append(ans.Rows, row)
	}
	if grouped >= 0 {
		if err := req.groupBy(ctx, ans, grouped, opts); err != nil {
			return nil, err
		}
	}
	if ordered >= 0 {
		if err := req.orderBy(ctx, ans, ordered, opts); err != nil {
			return nil, err
		}
	}
	if decision != nil {
		ans.Plan = plan.Describe(p, decision, o == byGreedyPlan)
	}
	return ans, nil
}

// columnIndex finds a Table.column reference among an answer's
// columns: the GROUP BY and ORDER BY column must be projected.
func columnIndex(columns []string, ref cql.ColRef) (int, error) {
	for i, c := range columns {
		if strings.EqualFold(c, ref.String()) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("engine: %w: GROUP/ORDER BY column %s must appear in the projection (have %v)", exec.ErrStatement, ref, columns)
}

// ask runs p, a plan over the statement's answer, in the order s: asked
// of the run's own crowd — pool or markets, quality mode, fault policy
// or resolver — and recorded in its metadata, trace and progress, but
// under none of its order (planner, calibration, round cap).
// It opens a transport of its own and spends from the statement's
// account what the runs before it left of its BUDGET and retry budget.
// A run the account cuts short leaves the answer coarser than the
// statement asks, so the statement turns Partial with reason "budget".
func (req *SelectRequest) ask(ctx context.Context, rep *exec.Report, p *exec.Plan, s cost.Strategy, opts exec.Options) error {
	run := opts
	run.Strategy = s
	run.MaxRounds, run.Calibrate = 0, false
	if req.Transport != nil {
		// A transport of its own: the plan's edge ids restart at 0, and
		// the statement's stragglers must not answer its tasks.
		run.Transport = req.Transport()
		defer run.Transport.Close()
	}
	r, err := exec.Run(ctx, p, run)
	if err != nil {
		return err
	}
	if r.Capped && !rep.Reliability.Partial {
		rep.Reliability.Partial, rep.Reliability.Reason = true, "budget"
	}
	return nil
}

// column is the values of ans's column pos, in row order.
func column(ans *Answer, pos int) []string {
	values := make([]string, len(ans.Rows))
	for i, row := range ans.Rows {
		values[i] = row[pos]
	}
	return values
}

// groupBy folds ans into one row per group of the values in its column
// pos, the §4.2 Remark's crowdsourced entity resolution with
// transitivity: the Trans order over exec.ValuePlan, asked as ask asks.
// A grouping the account cuts short leaves its unasked pairs of values
// in separate groups, which splits an entity over rows. Each group keeps
// its first row plus a group_count column. A group is only as
// trustworthy as its least-confident row, so confidences fold by min.
func (req *SelectRequest) groupBy(ctx context.Context, ans *Answer, pos int, opts exec.Options) error {
	rep := ans.Report
	groups, err := req.group(ctx, rep, column(ans, pos), opts)
	if err != nil {
		return err
	}
	rows := make([][]string, len(groups))
	var conf []float64
	for k, g := range groups {
		rows[k] = append(append([]string(nil), ans.Rows[g[0]]...), strconv.Itoa(len(g)))
		if rep.Confidence != nil {
			c := rep.Confidence[g[0]]
			for _, i := range g[1:] {
				c = min(c, rep.Confidence[i])
			}
			conf = append(conf, c)
		}
	}
	ans.Rows = rows
	ans.Columns = append(append([]string(nil), ans.Columns...), "group_count")
	rep.Confidence = conf
	return nil
}

// group asks groupBy's grouping of values and returns its groups: the
// closure's clusters of the values, each as the indexes of its values,
// ordered by first index.
func (req *SelectRequest) group(ctx context.Context, rep *exec.Report, values []string, opts exec.Options) ([][]int, error) {
	p, valueOf := exec.ValuePlan(*req.Stmt.GroupBy, values, req.Oracle, req.PlanConfig)
	if err := req.ask(ctx, rep, p, baselines.NewTrans(), opts); err != nil {
		return nil, err
	}
	cl := graph.NewClosure(p.G)
	cl.Update()
	var groups [][]int
	groupOf := map[int]int{}
	for i, k := range valueOf {
		root := cl.ClusterRoot(0, p.G.VertexID(0, k))
		g, ok := groupOf[root]
		if !ok {
			g = len(groups)
			groupOf[root] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups, nil
}

// orderBy sorts ans by the values in its column pos, the §4.2 Remark's
// crowd-compared ORDER BY: exec.OrderPlan's comparisons in
// exec.PivotOrder's rounds, every unsorted part against its pivot at
// once, asked as ask asks. A sort the account cuts short leaves its
// unsplit parts in input order. Rows of equal value keep their order,
// and confidences move with their rows.
func (req *SelectRequest) orderBy(ctx context.Context, ans *Answer, pos int, opts exec.Options) error {
	rep := ans.Report
	p, order := exec.OrderPlan(*req.Stmt.OrderBy, column(ans, pos))
	if err := req.ask(ctx, rep, p, order, opts); err != nil {
		return err
	}
	perm := order.Perm(p.G)
	ans.Rows = permute(ans.Rows, perm)
	rep.Confidence = permute(rep.Confidence, perm)
	return nil
}

// permute returns xs in the order perm gives; nil stays nil.
func permute[T any](xs []T, perm []int) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(perm))
	for i, k := range perm {
		out[i] = xs[k]
	}
	return out
}
