package exec

import (
	"context"
	"fmt"
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
	// crowd work that may remain.
	Open int `json:"open"`
	// Inferred counts edges this round labeled by transitive inference
	// instead of crowd work (zero unless Options.Transitive).
	Inferred int `json:"inferred,omitempty"`
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
	// Transitive enables transitive inference over crowd answers
	// (within each predicate, A=B ∧ B=C entails A=C and A=B ∧ B≠C
	// entails A≠C): after every round the entailed labels are colored
	// into the graph for free, closure-aware strategies stop asking
	// entailed edges, and Report gains Inferred / Provenance.
	Transitive bool
}

// Report is the outcome of one execution.
type Report struct {
	Metrics     stats.Metrics
	Assignments int     // worker answers collected
	HITs        int     // priced HITs
	Dollars     float64 // simulated spend
	Answers     []graph.Embedding
	// Confidence holds the executor's confidence in each answer,
	// aligned with Answers: the minimum verdict confidence over the
	// answer's edges (majority margin, Bayesian posterior, or — for
	// tasks lost to faults — the optimizer's prior). 1.0 for edges
	// decided without the crowd.
	Confidence []float64
	// Reliability reports the fault policy's view of the execution;
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
	// Inferred counts edges labeled by transitive inference instead of
	// crowd work; Provenance breaks each answer's supporting edges down
	// by origin, aligned with Answers. Both zero/nil unless
	// Options.Transitive.
	Inferred   int
	Provenance []AnswerProvenance
	// PerMarket counts tasks routed to each market when a Router is
	// configured (async transport: accepted answers per market).
	PerMarket map[string]int

	// emHistory accumulates every CDB+ task across rounds so truth
	// inference always runs over the full evidence (worker quality
	// estimates sharpen as the query progresses).
	emHistory []quality.ChoiceTask
	// histIndex maps a graph edge to its emHistory entry so stragglers
	// from finished rounds can still feed the worker model.
	histIndex map[int]int
	// seen implements idempotent answer dedup: edge → workers whose
	// answer was already counted.
	seen map[int]map[int]bool
	// edgeConf records per-edge verdict confidence.
	edgeConf map[int]float64
	// crowdEdges / inferredEdges track per-edge label origin for
	// Provenance (only populated in transitive mode).
	crowdEdges    map[int]bool
	inferredEdges map[int]bool
	// retryBudget is the query-wide allowance of reissued assignments.
	retryBudget int
	// round is the 1-based number of the round being asked (the
	// RoundUpdate.Round it completes as), recorded with each task.
	round int
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
	opts.Reliability = opts.Reliability.withDefaults()

	mQueries.Inc()
	rep := &Report{retryBudget: opts.Reliability.RetryBudget}
	g := p.G
	tr := opts.Trace
	// Attribute the strategy's internal phases (scoring, batching) and
	// its rescores to this query's trace.
	if tc, ok := opts.Strategy.(obs.TraceCarrier); ok {
		tc.SetTracer(tr)
		defer tc.SetTracer(nil)
	}
	cacheStats, _ := opts.Strategy.(obs.CacheStatser)

	var closure *graph.Closure
	if opts.Transitive {
		closure = graph.NewClosure(g)
		// Inferred labels inherit the weakest verdict confidence on
		// their entailing path; edges colored without a verdict (exact
		// equi-joins) count as certain.
		closure.ConfFn = func(e int) float64 {
			if v, ok := rep.edgeConf[e]; ok {
				return v
			}
			return 1
		}
		if cc, ok := opts.Strategy.(ClosureCarrier); ok {
			cc.SetClosure(closure)
			defer cc.SetClosure(nil)
		}
	}

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
	abort := func(err error) error {
		// Graceful degradation: surface what completed instead of the
		// error, unless the caller asked for fail-fast.
		if opts.Reliability.Strict {
			return err
		}
		rep.Reliability.Partial = true
		rep.Reliability.Reason = reasonOf(err)
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
			validBefore = g.CountValidUncolored()
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
		batch, err := dedupeUncolored(g, batch, inBatch, int32(rounds+1))
		if err != nil {
			// Wrap with query + round context so a misbehaving strategy
			// is attributable from the error alone.
			err = fmt.Errorf("exec: %s: round %d: %w", opts.Strategy.Name(), rounds+1, err)
			tr.Mutate(roundSpan, func(s *obs.Span) { s.Err = err.Error() })
			tr.End(roundSpan)
			return nil, err
		}
		if len(batch) == 0 {
			// The final strategy probe that found nothing to ask: not a
			// crowd round, but its scoring work is real — keep the span
			// under a distinct name so round spans count exactly
			// Metrics.Rounds.
			tr.Mutate(roundSpan, func(s *obs.Span) { s.Name = obs.SpanDrain })
			tr.End(roundSpan)
			break
		}
		// Snapshot the rollback state: if the round aborts mid-flight
		// (context cancellation inside an async collect) it is
		// discarded wholesale, so the partial result reflects exactly
		// the completed rounds and stays deterministic regardless of
		// where in the round the cancellation landed.
		asksBefore := rep.Assignments
		relBefore := rep.Reliability
		budgetBefore := rep.retryBudget
		coalescedBefore, cachedBefore := rep.Coalesced, rep.CachedTasks
		var perMarketBefore map[string]int
		if opts.Transport != nil && rep.PerMarket != nil {
			perMarketBefore = make(map[string]int, len(rep.PerMarket))
			for k, v := range rep.PerMarket {
				perMarketBefore[k] = v
			}
		}

		rep.round = rounds + 1
		issueStart := time.Now()
		issueSpan := tr.Begin(obs.SpanIssue)
		var verdicts map[int]bool
		var roundErr error
		switch {
		case opts.Resolver != nil:
			verdicts, roundErr = rep.crowdsourceResolver(ctx, p, batch, opts)
		case opts.Transport != nil:
			verdicts, roundErr = rep.crowdsourceAsync(ctx, p, batch, opts)
		case opts.Quality == CDBPlus:
			verdicts = rep.crowdsourceAdaptive(p, batch, opts)
		default:
			verdicts = rep.crowdsourceMajority(p, batch, opts)
		}
		mPhaseIssue.Observe(time.Since(issueStart).Seconds())
		tr.Mutate(issueSpan, func(s *obs.Span) {
			s.Tasks = len(batch)
			s.Asks = rep.Assignments - asksBefore
		})
		tr.End(issueSpan)
		if roundErr != nil {
			tr.Mutate(roundSpan, func(s *obs.Span) { s.Err = roundErr.Error() })
			tr.End(roundSpan)
			if aerr := abort(roundErr); aerr != nil {
				return nil, aerr
			}
			// Roll the discarded round back out of the report.
			rep.Assignments = asksBefore
			rep.Coalesced, rep.CachedTasks = coalescedBefore, cachedBefore
			relTrunc := relBefore
			relTrunc.Partial = rep.Reliability.Partial
			relTrunc.Reason = rep.Reliability.Reason
			relTrunc.RoundsTruncated++
			rep.Reliability = relTrunc
			rep.retryBudget = budgetBefore
			if opts.Transport != nil {
				rep.PerMarket = perMarketBefore
			}
			break
		}
		rounds++
		tasks += len(batch)
		mRounds.Inc()
		mTasks.Add(int64(len(batch)))

		colorSpan := tr.Begin(obs.SpanColor)
		blue, red := 0, 0
		for e, match := range verdicts {
			if match {
				g.SetColor(e, graph.Blue)
				blue++
			} else {
				g.SetColor(e, graph.Red)
				red++
			}
			if closure != nil {
				rep.markCrowd(e)
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

		inferredRound := 0
		if closure != nil {
			inferredRound = rep.applyInference(p, closure, opts)
			if inferredRound > 0 {
				n := inferredRound
				tr.Event("inference", func(s *obs.Span) { s.Tasks = n })
			}
		}

		if tr != nil {
			validAfter := g.CountValidUncolored()
			colored := len(verdicts) + inferredRound
			round := rounds
			tr.Mutate(roundSpan, func(s *obs.Span) {
				s.Round = round
				s.Tasks = len(batch)
				s.Asks = rep.Assignments - asksBefore
				s.Blue = blue
				s.Red = red
				s.Edges = validAfter
				if pruned := validBefore - validAfter - colored; pruned > 0 {
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
				Round:            rounds,
				Tasks:            len(batch),
				Assignments:      rep.Assignments - asksBefore,
				Blue:             blue,
				Red:              red,
				TasksTotal:       tasks,
				AssignmentsTotal: rep.Assignments,
				Open:             g.CountValidUncolored(),
				Inferred:         inferredRound,
			})
		}
		if opts.MaxRounds > 0 && rounds >= opts.MaxRounds {
			break
		}
	}

	// Strategies that crowdsource tasks outside the query graph (the
	// ER baselines' within-side dedup pairs) report them here.
	if et, ok := opts.Strategy.(interface{ ExtraTasks() int }); ok {
		if extra := et.ExtraTasks(); extra > 0 {
			tasks += extra
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
	if rep.Reliability.Partial {
		mPartials.Inc()
	}
	rep.Answers = g.Answers()
	if closure != nil {
		rep.assembleProvenance()
	}
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
	precision, recall := stats.PrecisionRecall(answerKeys(rep.Answers), p.TrueAnswerKeys())
	rep.Metrics = stats.Metrics{Tasks: tasks, Rounds: rounds, Precision: precision, Recall: recall}
	rep.HITs = opts.Pricing.HITs(rep.Assignments)
	rep.Dollars = opts.Pricing.Cost(rep.Assignments)
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

// crowdsourceMajority asks k distinct workers per task and majority-
// votes the answers. With a Router configured, consecutive tasks are
// dealt across markets (cross-market HIT deployment).
func (rep *Report) crowdsourceMajority(p *Plan, batch []int, opts Options) map[int]bool {
	verdicts := make(map[int]bool, len(batch))
	for _, e := range batch {
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
		workers := pool.DistinctArrivals(opts.Redundancy)
		taskID := -1
		if opts.Meta != nil {
			pred, l, r := p.TaskDescription(e)
			taskID = opts.Meta.RecordTask(taskKindOf(p, e), pred, l, r, rep.round)
		}
		yes := 0
		for _, w := range workers {
			ans := w.AnswerBool(p.Truth[e])
			if ans {
				yes++
			}
			if opts.Meta != nil {
				opts.Meta.RecordAssignment(taskID, w.ID, boolAnswer(ans))
			}
		}
		rep.Assignments += len(workers)
		verdicts[e] = 2*yes > len(workers)
		conf := float64(yes) / float64(len(workers))
		if !verdicts[e] {
			conf = 1 - conf
		}
		rep.setEdgeConf(e, conf)
		if opts.Meta != nil {
			_ = opts.Meta.RecordVerdict(taskID, verdicts[e])
		}
	}
	return verdicts
}

func boolAnswer(b bool) string {
	if b {
		return "match"
	}
	return "nonmatch"
}

// taskKindOf distinguishes selection tasks (one side is a constant)
// from join tasks.
func taskKindOf(p *Plan, edgeID int) meta.TaskKind {
	if p.Bindings[p.G.Edge(edgeID).Pred].RightCol < 0 {
		return meta.TaskSelection
	}
	return meta.TaskJoin
}

// crowdsourceAdaptive implements CDB+ quality control for one round:
// every task receives one answer, then the remaining k·|batch|−|batch|
// answer slots go to the tasks with the highest expected entropy
// reduction for each arriving worker (Eq. 3), skipping tasks already
// confident. Truth is inferred by EM (updating the persistent worker
// model) and Bayesian voting (Eq. 2).
func (rep *Report) crowdsourceAdaptive(p *Plan, batch []int, opts Options) map[int]bool {
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
	metaIDs := make([]int, len(batch))
	for i := range metaIDs {
		metaIDs[i] = -1
		if opts.Meta != nil {
			pred, l, r := p.TaskDescription(batch[i])
			metaIDs[i] = opts.Meta.RecordTask(taskKindOf(p, batch[i]), pred, l, r, rep.round)
		}
	}
	answerTask := func(i int, w *crowd.Worker) {
		choice := 0
		if w.AnswerBool(p.Truth[batch[i]]) {
			choice = 1
		}
		taskList[i].Answers = append(taskList[i].Answers, quality.ChoiceAnswer{Worker: w.ID, Choice: choice})
		answeredBy[i][w.ID] = true
		posteriors[i] = quality.BayesianPosterior(taskList[i], opts.Workers.Quality)
		rep.Assignments++
		budget--
		if opts.Meta != nil {
			opts.Meta.RecordAssignment(metaIDs[i], w.ID, boolAnswer(choice == 1))
		}
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

	// Truth inference: EM over the full query history refines worker
	// qualities; this round's verdicts come from the refreshed
	// posteriors of its own tasks.
	base := len(rep.emHistory)
	rep.emHistory = append(rep.emHistory, taskList...)
	inferSpan := opts.Trace.Begin(obs.SpanInfer)
	post := opts.Workers.InferEM(rep.emHistory, 50)
	opts.Trace.Mutate(inferSpan, func(s *obs.Span) { s.Tasks = len(rep.emHistory) })
	opts.Trace.End(inferSpan)
	verdicts := make(map[int]bool, len(batch))
	for i, e := range batch {
		verdicts[e] = quality.EstimateTruth(post[base+i]) == 1
		pp := post[base+i]
		conf := pp[0]
		if pp[1] > conf {
			conf = pp[1]
		}
		rep.setEdgeConf(e, conf)
		if opts.Meta != nil {
			_ = opts.Meta.RecordVerdict(metaIDs[i], verdicts[e])
			for _, a := range taskList[i].Answers {
				opts.Meta.UpdateWorkerQuality(a.Worker, opts.Workers.Quality(a.Worker))
			}
		}
	}
	return verdicts
}
