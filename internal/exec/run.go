package exec

import (
	"context"
	"fmt"
	"math"
	"time"

	"cdb/internal/cost"
	"cdb/internal/crowd"
	"cdb/internal/graph"
	"cdb/internal/meta"
	"cdb/internal/obs"
	"cdb/internal/quality"
	"cdb/internal/stats"
)

// Executor metrics: totals across all queries of the process plus
// per-query shape histograms (how many rounds/tasks a query takes).
var (
	mQueries    = obs.Default.Counter("cdb_exec_queries_total")
	mRounds     = obs.Default.Counter("cdb_exec_rounds_total")
	mTasks      = obs.Default.Counter("cdb_exec_tasks_total")
	mQueryTasks = obs.Default.Histogram("cdb_exec_query_tasks", obs.SizeBuckets)
	mQueryRnds  = obs.Default.Histogram("cdb_exec_query_rounds", obs.SizeBuckets)
	// Phase-duration histograms: where a query's wall clock goes. The
	// round histogram observes each completed crowd round end to end;
	// issue isolates the task-issue/answer-collection slice of it.
	mPhaseRound = obs.Default.Histogram("cdb_exec_phase_round_seconds", obs.DurationBuckets)
	mPhaseIssue = obs.Default.Histogram("cdb_exec_phase_issue_seconds", obs.DurationBuckets)
)

// QualityMode selects the answer-aggregation machinery.
type QualityMode int

// Quality modes.
const (
	// MajorityVoting is the baseline used by CrowdDB/Qurk/Deco and by
	// plain CDB: k answers per task, plurality wins.
	MajorityVoting QualityMode = iota
	// CDBPlus enables §5.3: EM truth inference with a persistent worker
	// model, entropy-driven task assignment and confidence-based early
	// stopping.
	CDBPlus
)

// String implements fmt.Stringer.
func (m QualityMode) String() string {
	if m == CDBPlus {
		return "cdb+"
	}
	return "majority-voting"
}

// RoundUpdate is a progress snapshot emitted at the end of every
// completed crowd round. It is what a serving layer streams to remote
// clients while a long-lived crowd query trickles in: what this round
// asked, how the crowd ruled, and how much of the query graph remains
// open. Rounds discarded by cancellation never emit an update, so the
// number of updates always equals the final Metrics.Rounds.
type RoundUpdate struct {
	// Round is the 1-based index of the round that just completed.
	Round int `json:"round"`
	// Tasks and Assignments count this round's crowd work: tasks
	// issued and worker answers collected.
	Tasks       int `json:"tasks"`
	Assignments int `json:"assignments"`
	// Blue and Red split this round's verdicts: edges the crowd judged
	// matching vs non-matching.
	Blue int `json:"blue"`
	Red  int `json:"red"`
	// TasksTotal and AssignmentsTotal accumulate across rounds.
	TasksTotal       int `json:"tasks_total"`
	AssignmentsTotal int `json:"assignments_total"`
	// Open counts the valid uncolored edges still in play — the
	// crowd work that may remain; for an ORDER BY, the comparisons its
	// unsorted parts ask and have no answer for.
	Open int `json:"open"`
}

// Options configures one execution.
type Options struct {
	// Strategy performs cost control. Required.
	Strategy cost.Strategy
	// Redundancy is the number of answers per task (paper default 5).
	Redundancy int
	// Quality selects aggregation; CDBPlus adds task assignment.
	Quality QualityMode
	// MaxRounds bounds latency (Fig. 22): the last permitted round
	// floods Strategy.Flush. 0 means unbounded.
	MaxRounds int
	// Pool simulates the crowd. Required.
	Pool *crowd.Pool
	// Workers persists quality estimates across queries (CDB's worker
	// metadata); created fresh when nil.
	Workers *quality.WorkerModel
	// Confidence is CDBPlus's early-stop posterior threshold
	// (default 0.95).
	Confidence float64
	// Pricing computes HIT cost; zero value uses crowd.DefaultPricing.
	Pricing crowd.Pricing
	// Router optionally spreads tasks across several crowdsourcing
	// markets (§2.2's cross-market deployment). When set, each task's
	// answers come from the routed market's pool; Pool remains the
	// fallback (and the CDB+ assignment pool, whose persistent worker
	// model needs one consistent ID space).
	Router *crowd.Router
	// Meta optionally records every task, assignment and verdict into
	// CDB's relational metadata store (§2.1).
	Meta *meta.Store
	// Calibrate turns on adaptive probability calibration (§4.1's
	// trained similarity→probability mapping): every answered task is a
	// labelled pair, and once enough evidence accumulates the remaining
	// edges are re-weighted with isotonic-calibrated probabilities.
	Calibrate bool
	// Trace receives the execution's lifecycle spans (one per round,
	// with scoring/batching/issue/inference children). nil disables
	// tracing; the round loop then pays a single branch per round and
	// allocates nothing for observability.
	Trace *obs.Tracer
	// Transport switches crowdsourcing to the fault-tolerant
	// asynchronous issue/collect protocol (per-HIT deadlines, hedging,
	// retry with backoff, idempotent answer dedup). nil keeps the
	// synchronous simulator path. The caller owns the transport's
	// lifecycle (Close).
	Transport *crowd.Transport
	// Reliability tunes the async policy; the zero value means
	// defaults. Reliability.Strict turns degradation into errors.
	Reliability Reliability
	// Resolver, when set, routes every crowd task through a shared
	// serving layer (the engine's HIT coalescer) instead of the local
	// pool or transport. It takes precedence over Transport and the
	// quality modes — the resolver owns aggregation.
	Resolver TaskResolver
	// Progress, when set, is invoked synchronously at the end of every
	// completed crowd round with a RoundUpdate snapshot (nil-safe, like
	// the tracer). It runs on the executing goroutine: a slow consumer
	// delays the next round, so hand off to a channel for streaming.
	Progress func(RoundUpdate)
	// Account is the statement's spend, shared by all its runs; nil
	// opens an uncapped account for this run alone.
	Account *Account
}

// Account is one statement's crowd spend. Every run of the statement —
// its join order, its GROUP BY grouping, its ORDER BY sort — draws on
// the one Account (Options.Account): the tasks its BUDGET leaves, the
// reissues its Reliability.RetryBudget leaves, and the running tallies
// that number its rounds, progress updates and metadata task rows and
// make its Stats. Each Report of the statement embeds it, so any of
// them reads the statement's totals.
type Account struct {
	// Metrics counts the statement's tasks and rounds. Precision and
	// Recall score the answers of the account's first run: a later run
	// regroups those answers rather than producing new ones.
	Metrics     stats.Metrics
	Assignments int     // worker answers collected
	HITs        int     // priced HITs, each run priced on its own
	Dollars     float64 // simulated spend
	// Reliability reports the fault policy's view of the statement;
	// Reliability.Partial marks a gracefully degraded result.
	Reliability ReliabilityStats
	// Coalesced / CachedTasks count tasks answered by a shared
	// TaskResolver without fresh crowd work: attached to another
	// query's in-flight HIT, or served from the shared verdict cache.
	// Zero off the resolver path.
	Coalesced   int
	CachedTasks int
	// LedgerTasks counts tasks served from the durable crowd-work
	// ledger (paid before a restart, replayed free). Not part of the
	// wire Stats: a resumed query's Result stays byte-identical to an
	// uninterrupted run; the split surfaces via introspection and
	// engine counters only.
	LedgerTasks int
	// PerMarket counts tasks routed to each market when a Router is
	// configured (async transport: accepted answers per market).
	PerMarket map[string]int

	// left is the tasks the BUDGET leaves (math.MaxInt without one);
	// retries the reissued assignments the retry budget leaves.
	left, retries int
	// scored marks that a run has set Metrics' Precision and Recall.
	scored bool
}

// NewAccount opens a statement's account: tasks caps the tasks its runs
// may ask (its BUDGET; math.MaxInt for none), and rel.RetryBudget, after
// defaults, the assignments they may reissue.
func NewAccount(tasks int, rel Reliability) *Account {
	return &Account{left: tasks, retries: rel.withDefaults().RetryBudget}
}

// Report is the outcome of one execution: its answers over the
// statement's Account.
type Report struct {
	*Account
	Answers []graph.Embedding
	// Confidence holds the executor's confidence in each answer,
	// aligned with Answers: the minimum verdict confidence over the
	// answer's edges (majority margin, Bayesian posterior, or — for
	// tasks lost to faults — the optimizer's prior). 1.0 for edges
	// decided without the crowd.
	Confidence []float64
	// Capped reports that the account's task cap cut a batch of this
	// run: the order had more to ask than the BUDGET left.
	Capped bool `json:",omitempty"`

	// emHistory accumulates every CDB+ task across rounds so truth
	// inference always runs over the full evidence (worker quality
	// estimates sharpen as the query progresses).
	emHistory []quality.ChoiceTask
	// histIndex maps a graph edge to its emHistory entry, for conclude
	// and for transport stragglers from finished rounds, which still
	// feed the worker model.
	histIndex map[int]int
	// seen implements idempotent answer dedup: edge → workers whose
	// answer was already counted.
	seen map[int]map[int]bool
	// metaOf maps an asked edge to its metadata task row, so an answer
	// arriving after its round still records against it (nil without
	// Options.Meta).
	metaOf map[int]int32
	// edgeConf records per-edge verdict confidence.
	edgeConf map[int]float64
	// tasks holds the round being asked, aligned with its batch, and
	// answers the worker answers it collected for the metadata store;
	// buffers reused round to round.
	tasks   []roundTask
	answers []roundAnswer
}

// Run executes the plan with Algorithm 1. The plan's graph is mutated
// (colored); build a fresh plan per run.
//
// ctx cancels or deadlines the query: the executor checks it at round
// boundaries and inside every async collect. Unless
// Reliability.Strict is set, cancellation degrades gracefully — the
// in-flight round is discarded wholesale and Run returns a partial
// Report (Reliability.Partial) reflecting exactly the completed
// rounds, which keeps the partial result deterministic for a fixed
// seed no matter when the cancellation lands.
func Run(ctx context.Context, p *Plan, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Strategy == nil {
		return nil, fmt.Errorf("exec: Options.Strategy is required")
	}
	if opts.Pool == nil {
		return nil, fmt.Errorf("exec: Options.Pool is required")
	}
	if opts.Redundancy <= 0 {
		opts.Redundancy = 5
	}
	if opts.Confidence <= 0 {
		opts.Confidence = 0.95
	}
	if opts.Workers == nil {
		opts.Workers = quality.NewWorkerModel()
	}
	if opts.Pricing.TasksPerHIT == 0 {
		opts.Pricing = crowd.DefaultPricing
	}
	if opts.Account == nil {
		opts.Account = NewAccount(math.MaxInt, opts.Reliability)
	}
	opts.Reliability = opts.Reliability.withDefaults()

	mQueries.Inc()
	rep := &Report{Account: opts.Account}
	asks0, partial0 := rep.Assignments, rep.Reliability.Partial
	g := p.G
	tr := opts.Trace
	// Attribute the strategy's internal phases (scoring, batching) and
	// its rescores to this query's trace.
	if tc, ok := opts.Strategy.(obs.TraceCarrier); ok {
		tc.SetTracer(tr)
		defer tc.SetTracer(nil)
	}
	cacheStats, _ := opts.Strategy.(obs.CacheStatser)

	var calib *quality.Calibrator
	var rawW []float64
	calibAnnounced := false
	if opts.Calibrate {
		calib = quality.NewCalibrator(10)
		rawW = make([]float64, g.NumEdges())
		for e := 0; e < g.NumEdges(); e++ {
			rawW[e] = g.Edge(e).W
		}
	}
	rounds, tasks := 0, 0
	inBatch := make([]int32, g.NumEdges()) // dedupeUncolored's stamps
	// open counts the work the run may still ask, for progress and
	// tracing: the graph's valid uncolored edges, unless the strategy
	// binds edges as it asks them and counts its own (PivotOrder).
	open := g.CountValidUncolored
	if oc, ok := opts.Strategy.(interface{ Open(*graph.Graph) int }); ok {
		open = func() int { return oc.Open(g) }
	}
	abort := func(err error) error {
		// Graceful degradation: surface what completed instead of the
		// error, unless the caller asked for fail-fast. The statement's
		// first degradation names the reason.
		if opts.Reliability.Strict {
			return err
		}
		if !rep.Reliability.Partial {
			rep.Reliability.Partial, rep.Reliability.Reason = true, reasonOf(err)
		}
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			if aerr := abort(err); aerr != nil {
				return nil, aerr
			}
			break
		}
		roundStart := time.Now()
		roundSpan := tr.Begin(obs.SpanRound)
		validBefore := 0
		var cacheF0 uint64
		if tr != nil {
			validBefore = open()
			if cacheStats != nil {
				cacheF0, _, _ = cacheStats.CacheStats()
			}
		}

		var batch []int
		if opts.MaxRounds > 0 && rounds == opts.MaxRounds-1 {
			batch = opts.Strategy.Flush(g)
		} else {
			batch = opts.Strategy.NextRound(g)
		}
		// Edges the strategy just bound (PivotOrder binds as it asks).
		inBatch = append(inBatch, make([]int32, g.NumEdges()-len(inBatch))...)
		batch, err := dedupeUncolored(g, batch, inBatch, int32(rounds+1))
		if err != nil {
			// Wrap with query + round context so a misbehaving strategy
			// is attributable from the error alone.
			err = fmt.Errorf("exec: %s: round %d: %w", opts.Strategy.Name(), rounds+1, err)
			tr.Mutate(roundSpan, func(s *obs.Span) { s.Err = err.Error() })
			tr.End(roundSpan)
			return nil, err
		}
		if len(batch) > rep.left {
			batch, rep.Capped = batch[:rep.left], true
		}
		if len(batch) == 0 {
			// The final strategy probe that found nothing to ask, or
			// nothing the account could pay for: not a crowd round, but
			// its scoring work is real — keep the span under a distinct
			// name so round spans count exactly Metrics.Rounds.
			tr.Mutate(roundSpan, func(s *obs.Span) { s.Name = obs.SpanDrain })
			tr.End(roundSpan)
			break
		}
		issueStart := time.Now()
		issueSpan := tr.Begin(obs.SpanIssue)
		asks, roundErr := rep.crowdsource(ctx, p, batch, opts)
		mPhaseIssue.Observe(time.Since(issueStart).Seconds())
		tr.Mutate(issueSpan, func(s *obs.Span) {
			s.Tasks = len(batch)
			s.Asks = asks
		})
		tr.End(issueSpan)
		if roundErr != nil {
			tr.Mutate(roundSpan, func(s *obs.Span) { s.Err = roundErr.Error() })
			tr.End(roundSpan)
			if aerr := abort(roundErr); aerr != nil {
				return nil, aerr
			}
			// The failed round committed nothing (see crowdsource), so
			// the partial result reflects exactly the completed rounds
			// wherever in the round the cancellation landed.
			rep.Reliability.RoundsTruncated++
			break
		}
		rounds++
		tasks += len(batch)
		mRounds.Inc()
		mTasks.Add(int64(len(batch)))

		colorSpan := tr.Begin(obs.SpanColor)
		blue, red := 0, 0
		for i, e := range batch {
			match := rep.tasks[i].match
			if match {
				g.SetColor(e, graph.Blue)
				blue++
			} else {
				g.SetColor(e, graph.Red)
				red++
			}
			if calib != nil {
				calib.Observe(rawW[e], match)
			}
		}
		if calib != nil && calib.Fitted() {
			if !calibAnnounced {
				calibAnnounced = true
				tr.Event("calibration-fitted", nil)
			}
			for e := 0; e < g.NumEdges(); e++ {
				if g.Edge(e).Color == graph.Unknown {
					g.SetWeight(e, calib.Prob(rawW[e]))
				}
			}
		}
		tr.End(colorSpan)

		if tr != nil {
			validAfter := open()
			round := rep.Metrics.Rounds
			tr.Mutate(roundSpan, func(s *obs.Span) {
				s.Round = round
				s.Tasks = len(batch)
				s.Asks = asks
				s.Blue = blue
				s.Red = red
				s.Edges = validAfter
				if pruned := validBefore - validAfter - len(batch); pruned > 0 {
					s.Pruned = pruned
				}
				if cacheStats != nil {
					f1, _, _ := cacheStats.CacheStats()
					s.CacheFull = int(f1 - cacheF0)
				}
			})
		}
		tr.End(roundSpan)
		mPhaseRound.Observe(time.Since(roundStart).Seconds())
		if opts.Progress != nil {
			opts.Progress(RoundUpdate{
				Round:            rep.Metrics.Rounds,
				Tasks:            len(batch),
				Assignments:      asks,
				Blue:             blue,
				Red:              red,
				TasksTotal:       rep.Metrics.Tasks,
				AssignmentsTotal: rep.Assignments,
				Open:             open(),
			})
		}
		if opts.MaxRounds > 0 && rounds >= opts.MaxRounds {
			break
		}
	}

	// The round buffers are scratch; a Report outlives the run in the
	// engine's answer cache.
	rep.tasks, rep.answers = nil, nil

	// Strategies that crowdsource tasks outside the query graph (the
	// ER baselines' within-side dedup pairs) report them here.
	if et, ok := opts.Strategy.(interface{ ExtraTasks() int }); ok {
		if extra := et.ExtraTasks(); extra > 0 {
			tasks += extra
			rep.Metrics.Tasks += extra
			rep.Assignments += extra * opts.Redundancy
			mTasks.Add(int64(extra))
			tr.Event("extra-tasks", func(s *obs.Span) { s.Tasks = extra })
		}
	}

	if rep.Reliability.Lost > 0 {
		rep.Reliability.Partial = true
		if rep.Reliability.Reason == "" {
			rep.Reliability.Reason = "tasks-lost"
		}
	}
	if rep.Reliability.Partial && !partial0 {
		mPartials.Inc()
	}
	rep.Answers = g.Answers()
	if rep.edgeConf != nil {
		rep.Confidence = make([]float64, len(rep.Answers))
		for i, a := range rep.Answers {
			c := 1.0
			for _, eid := range a.Edges {
				if v, ok := rep.edgeConf[eid]; ok && v < c {
					c = v
				}
			}
			rep.Confidence[i] = c
		}
	}
	if !rep.scored {
		rep.scored = true
		rep.Metrics.Precision, rep.Metrics.Recall = stats.PrecisionRecall(answerKeys(rep.Answers), p.TrueAnswerKeys())
	}
	rep.HITs += opts.Pricing.HITs(rep.Assignments - asks0)
	rep.Dollars += opts.Pricing.Cost(rep.Assignments - asks0)
	mQueryTasks.Observe(float64(tasks))
	mQueryRnds.Observe(float64(rounds))
	return rep, nil
}

// dedupeUncolored drops duplicate and already-colored edges from a
// strategy's batch, rejecting out-of-range ids (a buggy strategy used
// to panic deep inside the graph instead). seen holds one stamp per
// edge, owned by the run: seen[e] == round says e is already in this
// round's batch, so round must be positive and differ call to call.
func dedupeUncolored(g *graph.Graph, batch []int, seen []int32, round int32) ([]int, error) {
	out := make([]int, 0, len(batch))
	for _, e := range batch {
		if e < 0 || e >= g.NumEdges() {
			return nil, fmt.Errorf("batch edge %d out of range [0,%d)", e, g.NumEdges())
		}
		if seen[e] == round || g.Edge(e).Color != graph.Unknown {
			continue
		}
		seen[e] = round
		out = append(out, e)
	}
	return out, nil
}

// crowdsource runs one crowd round over batch: the run's path collects
// answers, the round is charged to the account, and conclude turns the
// answers into verdicts (rep.tasks[i].match for batch[i]) and writes the
// round to the metadata store. It returns the worker answers the round
// collected. A path that fails — the transport on a context error, a
// resolver that errs or leaves an edge unruled — commits none of its
// tallies to the report and writes nothing, so Run can discard the
// round wholesale; conclude itself fails only under Strict, which fails
// the run.
func (rep *Report) crowdsource(ctx context.Context, p *Plan, batch []int, opts Options) (asks int, err error) {
	rep.ask(batch)
	var served map[int]TaskVerdict
	switch {
	case opts.Resolver != nil:
		served, asks, err = rep.collectResolved(ctx, p, batch, opts)
	case opts.Transport != nil:
		asks, err = rep.collectAsync(ctx, p, batch, opts)
	case opts.Quality == CDBPlus:
		asks = rep.collectAdaptive(p, batch, opts)
	default:
		asks = rep.collectMajority(p, batch, opts)
	}
	if err != nil {
		return asks, err
	}
	rep.Metrics.Rounds++
	rep.Metrics.Tasks += len(batch)
	rep.left -= len(batch)
	rep.Assignments += asks
	return asks, rep.conclude(p, batch, served, opts)
}

// roundTask is one task of the round being asked: the tally of its
// collected answers — yes of n say "match" — and the verdict conclude
// draws from them.
type roundTask struct {
	yes, n int32
	match  bool
}

// roundAnswer is one worker answer a round collected, kept for the
// metadata store until the round commits; edge may be a task of an
// earlier round (a transport straggler).
type roundAnswer struct {
	edge, worker int
	match        bool
}

// ask opens a round over batch: one zeroed entry per task, and no
// answer yet.
func (rep *Report) ask(batch []int) {
	if cap(rep.tasks) < len(batch) {
		rep.tasks = make([]roundTask, len(batch))
	}
	rep.tasks = rep.tasks[:len(batch)]
	clear(rep.tasks)
	rep.answers = rep.answers[:0]
}

// collected keeps a worker answer on edge for the metadata store m, if
// any.
func (rep *Report) collected(m *meta.Store, edge, worker int, match bool) {
	if m != nil {
		rep.answers = append(rep.answers, roundAnswer{edge, worker, match})
	}
}

// record writes a committed round to the metadata store: a task row
// per task of batch, tagged with the round, then every answer the
// round collected, in arrival order.
func (rep *Report) record(p *Plan, batch []int, m *meta.Store) {
	if rep.metaOf == nil {
		rep.metaOf = make(map[int]int32, len(batch))
	}
	for _, e := range batch {
		pred, l, r := p.TaskDescription(e)
		rep.metaOf[e] = int32(m.RecordTask(taskKindOf(p, e), pred, l, r, rep.Metrics.Rounds))
	}
	for _, a := range rep.answers {
		m.RecordAssignment(int(rep.metaOf[a.edge]), a.worker, boolAnswer(a.match))
	}
}

// remember adds task e's answers to the query's EM history.
func (rep *Report) remember(e int, t quality.ChoiceTask) {
	if rep.histIndex == nil {
		rep.histIndex = map[int]int{}
	}
	rep.histIndex[e] = len(rep.emHistory)
	rep.emHistory = append(rep.emHistory, t)
}

// conclude is the run's one verdict rule. Each task of the round gets
// its verdict and confidence from the ruling a resolver served, from
// CDB+'s EM over the query's whole answer history followed by Bayesian
// voting (Eq. 2), or from majority voting; a task that collected no
// answer falls back to the optimizer's prior and counts as lost. The
// verdict goes to the metadata task row and, under CDB+, each answering
// worker's refreshed quality to the worker relation. Strict turns a
// lost task into an error.
func (rep *Report) conclude(p *Plan, batch []int, served map[int]TaskVerdict, opts Options) error {
	if opts.Meta != nil {
		rep.record(p, batch, opts.Meta)
	}
	em := served == nil && opts.Quality == CDBPlus
	var post [][]float64
	if em {
		inferSpan := opts.Trace.Begin(obs.SpanInfer)
		post = opts.Workers.InferEM(rep.emHistory, 50)
		opts.Trace.Mutate(inferSpan, func(s *obs.Span) { s.Tasks = len(rep.emHistory) })
		opts.Trace.End(inferSpan)
	}
	lost := 0
	for i, e := range batch {
		t := &rep.tasks[i]
		var conf float64
		switch {
		case served != nil:
			v := served[e]
			t.match, conf = v.Value, v.Confidence
		case t.n == 0:
			lost++
			w := p.G.Edge(e).W
			t.match, conf = w >= 0.5, math.Max(w, 1-w)
		case em:
			pp := post[rep.histIndex[e]]
			t.match, conf = quality.EstimateTruth(pp) == 1, math.Max(pp[0], pp[1])
		default:
			t.match, conf = quality.Majority(int(t.yes), int(t.n))
		}
		rep.setEdgeConf(e, conf)
		if opts.Meta != nil {
			// record wrote the task row, so RecordVerdict cannot miss it.
			_ = opts.Meta.RecordVerdict(int(rep.metaOf[e]), t.match)
			if em && t.n > 0 {
				for _, a := range rep.emHistory[rep.histIndex[e]].Answers {
					opts.Meta.UpdateWorkerQuality(a.Worker, opts.Workers.Quality(a.Worker))
				}
			}
		}
	}
	if lost > 0 {
		rep.Reliability.Lost += lost
		mTasksLost.Add(int64(lost))
		if opts.Reliability.Strict {
			return fmt.Errorf("exec: %d tasks lost after %d retries (strict mode)", lost, opts.Reliability.MaxRetries)
		}
	}
	return nil
}

// collectMajority asks k distinct workers per task and tallies their
// answers. With a Router configured, consecutive tasks are dealt across
// markets (cross-market HIT deployment).
func (rep *Report) collectMajority(p *Plan, batch []int, opts Options) (asks int) {
	for i, e := range batch {
		pool := opts.Pool
		if opts.Router != nil {
			if m := opts.Router.Route(); m != nil {
				pool = m.Pool
				if rep.PerMarket == nil {
					rep.PerMarket = map[string]int{}
				}
				rep.PerMarket[m.Name]++
			}
		}
		t := &rep.tasks[i]
		workers := pool.DistinctArrivals(opts.Redundancy)
		for _, w := range workers {
			ans := w.AnswerBool(p.Truth[e])
			if ans {
				t.yes++
			}
			rep.collected(opts.Meta, e, w.ID, ans)
		}
		t.n = int32(len(workers))
		asks += len(workers)
	}
	return asks
}

func boolAnswer(b bool) string {
	if b {
		return "match"
	}
	return "nonmatch"
}

// taskKindOf distinguishes selection tasks (one side is a constant)
// and comparisons from join tasks.
func taskKindOf(p *Plan, edgeID int) meta.TaskKind {
	switch {
	case p.compare:
		return meta.TaskCompare
	case p.Bindings[p.G.Edge(edgeID).Pred].RightCol < 0:
		return meta.TaskSelection
	}
	return meta.TaskJoin
}

// collectAdaptive implements CDB+'s task assignment for one round:
// every task receives one answer, then the remaining k·|batch|−|batch|
// answer slots go to the tasks with the highest expected entropy
// reduction for each arriving worker (Eq. 3), skipping tasks already
// confident. The round's tasks join the query's EM history for
// conclude.
func (rep *Report) collectAdaptive(p *Plan, batch []int, opts Options) (asks int) {
	k := opts.Redundancy
	budget := k * len(batch)
	maxPerTask := 2 * k

	taskList := make([]quality.ChoiceTask, len(batch))
	answeredBy := make([]map[int]bool, len(batch))
	for i := range taskList {
		taskList[i].Choices = 2
		answeredBy[i] = map[int]bool{}
	}
	posteriors := make([][]float64, len(batch))
	for i := range posteriors {
		posteriors[i] = []float64{0.5, 0.5}
	}
	answerTask := func(i int, w *crowd.Worker) {
		choice := 0
		if w.AnswerBool(p.Truth[batch[i]]) {
			choice = 1
		}
		taskList[i].Answers = append(taskList[i].Answers, quality.ChoiceAnswer{Worker: w.ID, Choice: choice})
		answeredBy[i][w.ID] = true
		posteriors[i] = quality.BayesianPosterior(taskList[i], opts.Workers.Quality)
		asks++
		budget--
		rep.collected(opts.Meta, batch[i], w.ID, choice == 1)
	}
	// arrive draws a worker who has not yet judged task i (platforms
	// reject repeat judgements; answering twice would correlate
	// errors). nil when the pool is exhausted for this task.
	arrive := func(i int) *crowd.Worker {
		for try := 0; try < 4*opts.Pool.Size(); try++ {
			w := opts.Pool.Arrive()
			if !answeredBy[i][w.ID] {
				return w
			}
		}
		return nil
	}

	// Phase 1: coverage — up to k answers per task, in round-robin
	// passes, skipping tasks whose posterior is already confident (the
	// saved assignments fund phase 2). This guarantees an uncertain
	// task never receives fewer answers than the majority-voting
	// baseline would give it.
	for pass := 0; pass < k; pass++ {
		for i := range batch {
			if budget == 0 {
				break
			}
			if quality.ConfidentEnough(posteriors[i], opts.Confidence) {
				continue
			}
			if w := arrive(i); w != nil {
				answerTask(i, w)
			}
		}
	}
	// Phase 2: adaptive assignment of the remaining slots to the tasks
	// with the highest expected entropy reduction.
	misses := 0
	for budget > 0 && misses < 2*opts.Pool.Size() {
		w := opts.Pool.Arrive()
		open := func(i int) bool {
			return len(taskList[i].Answers) < maxPerTask &&
				!answeredBy[i][w.ID] &&
				!quality.ConfidentEnough(posteriors[i], opts.Confidence)
		}
		pick := quality.AssignChoice(posteriors, open, opts.Workers.Quality(w.ID), 1)
		if len(pick) == 0 {
			// This worker has judged every open task (or everything is
			// confident): wait for a different arrival before giving up.
			misses++
			continue
		}
		misses = 0
		answerTask(pick[0], w)
	}

	for i, e := range batch {
		if rep.tasks[i].n = int32(len(taskList[i].Answers)); rep.tasks[i].n > 0 {
			rep.remember(e, taskList[i])
		}
	}
	return asks
}
