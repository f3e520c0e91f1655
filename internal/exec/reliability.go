package exec

import (
	"context"
	"math"
	"sort"

	"cdb/internal/crowd"
	"cdb/internal/obs"
	"cdb/internal/quality"
	"cdb/internal/stats"
)

// Reliability metrics: what the executor observed and how it reacted.
// Compare against the cdb_faults_* counters (what the chaos engine
// injected) to see how much damage the policy absorbed.
var (
	mTasksLost   = obs.Default.Counter("cdb_exec_tasks_lost_total")
	mTasksRetry  = obs.Default.Counter("cdb_exec_tasks_retried_total")
	mTasksHedged = obs.Default.Counter("cdb_exec_tasks_hedged_total")
	mAnsLate     = obs.Default.Counter("cdb_exec_answers_late_total")
	mAnsDup      = obs.Default.Counter("cdb_exec_answers_duplicate_total")
	mPartials    = obs.Default.Counter("cdb_exec_partial_results_total")
)

// Reliability is the executor-side fault policy for the asynchronous
// crowd transport: per-HIT deadlines, straggler hedging, exponential
// backoff with deterministic jitter on reissue, and a capped retry
// budget. The zero value means "use defaults"; set a field negative to
// disable it where documented.
type Reliability struct {
	// TaskDeadline is the virtual-tick deadline of each HIT attempt
	// (default 64; the transport's default worst-case honest latency is
	// 24 ticks, so the default deadline only expires on injected
	// stragglers, drops, and blackouts).
	TaskDeadline int64
	// MaxRetries caps the reissue waves per round (default 2; negative
	// disables retries).
	MaxRetries int
	// RetryBudget caps the extra worker assignments reissues may charge
	// to the whole statement, all its runs together (the Account keeps
	// what is left) — retries spend real money, and the paper's BUDGET
	// semantics must keep holding under chaos (default 256; negative
	// means unlimited).
	RetryBudget int
	// BackoffBase multiplies the deadline of successive reissue waves
	// (default 2: 64, 128, 256, … ticks).
	BackoffBase float64
	// JitterFrac adds a deterministic per-(task, wave) jitter of up to
	// this fraction to each reissue deadline, decorrelating retry storms
	// (default 0.25; negative disables).
	JitterFrac float64
	// HedgeAfter is the fraction of TaskDeadline after which the
	// executor peeks at the round and hedges stragglers (default 0.5).
	HedgeAfter float64
	// HedgeFrac bounds the fraction of a round's tasks hedged — the
	// "reissue the slowest p%" policy (default 0.1; negative disables
	// hedging).
	HedgeFrac float64
	// Strict restores fail-fast: cancellation, deadline expiry, or a
	// task exhausting its retries turns into an error instead of a
	// partial Result.
	Strict bool
}

// withDefaults resolves the zero value into the documented defaults.
func (r Reliability) withDefaults() Reliability {
	if r.TaskDeadline <= 0 {
		r.TaskDeadline = 64
	}
	switch {
	case r.MaxRetries == 0:
		r.MaxRetries = 2
	case r.MaxRetries < 0:
		r.MaxRetries = 0
	}
	switch {
	case r.RetryBudget == 0:
		r.RetryBudget = 256
	case r.RetryBudget < 0:
		r.RetryBudget = math.MaxInt / 2
	}
	if r.BackoffBase < 1 {
		r.BackoffBase = 2
	}
	switch {
	case r.JitterFrac == 0:
		r.JitterFrac = 0.25
	case r.JitterFrac < 0:
		r.JitterFrac = 0
	}
	if r.HedgeAfter <= 0 || r.HedgeAfter >= 1 {
		r.HedgeAfter = 0.5
	}
	switch {
	case r.HedgeFrac == 0:
		r.HedgeFrac = 0.1
	case r.HedgeFrac < 0:
		r.HedgeFrac = 0
	}
	return r
}

// ReliabilityStats reports what the fault policy saw and did during one
// statement. All counts are zero on the clean synchronous path.
type ReliabilityStats struct {
	// Partial marks a degraded result: the query was cancelled, hit its
	// deadline, abandoned tasks after exhausting retries, or its BUDGET
	// cut its GROUP BY or ORDER BY short. The remaining fields say which.
	Partial bool
	// Reason is "" for a complete result, else the first degradation:
	// "canceled", "deadline", "tasks-lost" or "budget".
	Reason string
	// Issued counts worker assignments handed to the transport,
	// including hedge and retry waves; Reissued counts just the waves.
	Issued   int
	Reissued int
	// Lost counts tasks that ended a round with zero answers after all
	// retries — their verdicts fall back to the optimizer's prior.
	Lost int
	// Underfilled counts tasks concluded with at least one but fewer
	// than Redundancy answers.
	Underfilled int
	// Retried / Hedged count tasks that entered a retry wave / were
	// hedged at the round's hedge point.
	Retried int
	Hedged  int
	// Late counts answers that arrived after their HIT deadline (they
	// still feed truth inference); Duplicates counts answers suppressed
	// by idempotent (task, worker) dedup.
	Late       int
	Duplicates int
	// RoundsTruncated counts in-flight rounds discarded by
	// cancellation; the Result reflects only completed rounds.
	RoundsTruncated int
}

// asyncTask is the executor-side state of one task in the current
// round of the asynchronous path.
type asyncTask struct {
	edge    int
	attempt int
	retried bool
	answers []quality.ChoiceAnswer
}

// reasonOf maps a context error to a stable Reason string.
func reasonOf(err error) string {
	switch err {
	case context.Canceled:
		return "canceled"
	case context.DeadlineExceeded:
		return "deadline"
	default:
		if err == nil {
			return ""
		}
		return err.Error()
	}
}

// setEdgeConf records the executor's confidence in an edge verdict,
// later folded into per-answer confidences.
func (rep *Report) setEdgeConf(e int, conf float64) {
	if rep.edgeConf == nil {
		rep.edgeConf = map[int]float64{}
	}
	rep.edgeConf[e] = conf
}

// collectAsync runs one round over the fault-tolerant transport:
// issue every task with a per-HIT deadline, hedge the slowest tasks at
// the hedge point, collect to the deadline, then reissue missing
// assignments in capped backoff waves. Answers are deduped per
// (task, worker) so injected duplicates and late reissue overlaps feed
// truth inference exactly once (Eq. 2 stays correct). The round's
// reliability tallies, retry spend and per-market counts are committed
// to the report only once collection completes, and the answers reach
// the metadata store only when the round commits; a context error
// returns before, so the caller can discard the round wholesale.
func (rep *Report) collectAsync(ctx context.Context, p *Plan, batch []int, opts Options) (asks int, err error) {
	pol := opts.Reliability
	tp := opts.Transport
	tr := opts.Trace
	k := opts.Redundancy

	if rep.seen == nil {
		rep.seen = map[int]map[int]bool{}
	}
	rel, budget := rep.Reliability, rep.retries
	perMarket := map[string]int{}
	cur := make(map[int]*asyncTask, len(batch))
	deadline := tp.Now() + pol.TaskDeadline
	specs := make([]crowd.TaskSpec, 0, len(batch))
	for _, e := range batch {
		cur[e] = &asyncTask{}
		specs = append(specs, crowd.TaskSpec{ID: e, Truth: p.Truth[e], K: k, Deadline: deadline})
		rel.Issued += k
	}
	tp.Issue(specs)

	absorb := func(ans []crowd.Answer) {
		for _, a := range ans {
			if a.Late {
				rel.Late++
				mAnsLate.Inc()
			}
			seen := rep.seen[a.Task]
			if seen == nil {
				seen = map[int]bool{}
				rep.seen[a.Task] = seen
			}
			if seen[a.Worker] {
				// Idempotent dedup: one opinion per worker per task, no
				// matter how many deliveries or reissue overlaps.
				rel.Duplicates++
				mAnsDup.Inc()
				continue
			}
			seen[a.Worker] = true
			asks++
			perMarket[a.Market]++
			choice := 0
			if a.Value {
				choice = 1
			}
			ca := quality.ChoiceAnswer{Worker: a.Worker, Choice: choice}
			// Every accepted answer is paid, a straggler from an earlier
			// round included: each is a row of its own task.
			rep.collected(opts.Meta, a.Task, a.Worker, a.Value)
			if st, active := cur[a.Task]; active {
				st.answers = append(st.answers, ca)
			} else if idx, ok := rep.histIndex[a.Task]; ok {
				// A straggler from an earlier round: its verdict is
				// already colored, but the answer still sharpens the EM
				// worker model on the next inference run.
				rep.emHistory[idx].Answers = append(rep.emHistory[idx].Answers, ca)
			}
		}
	}

	collect := func(until crowd.Tick) error {
		span := tr.Begin(obs.SpanCollect)
		ans, err := tp.Collect(ctx, until)
		if err == nil {
			// A cancelled Collect returns whatever arrived before it saw
			// the context, which depends on scheduling. The round is
			// discarded and none of it paid, so none of it is recorded.
			absorb(ans)
		}
		tr.Mutate(span, func(s *obs.Span) { s.Asks = len(ans) })
		tr.End(span)
		return err
	}

	missing := func() []int {
		var out []int
		for _, e := range batch {
			if len(cur[e].answers) < k {
				out = append(out, e)
			}
		}
		return out
	}

	// reissue sends fresh assignments for each listed task, charging
	// the statement's retry budget, and returns the latest deadline issued.
	reissue := func(edges []int, waveDeadline int64, hedge bool) crowd.Tick {
		var wave []crowd.TaskSpec
		maxDl := tp.Now()
		for _, e := range edges {
			st := cur[e]
			need := k - len(st.answers)
			if need <= 0 || budget <= 0 {
				continue
			}
			if need > budget {
				need = budget
			}
			budget -= need
			st.attempt++
			dl := tp.Now() + waveDeadline
			if pol.JitterFrac > 0 {
				// Deterministic jitter per (task, attempt) decorrelates
				// the reissue wave without wall-clock randomness.
				jr := stats.HashRNG(0x9e3779b9, uint64(e), uint64(st.attempt))
				dl += int64(pol.JitterFrac * float64(waveDeadline) * jr.Float64())
			}
			if dl > maxDl {
				maxDl = dl
			}
			wave = append(wave, crowd.TaskSpec{ID: e, Attempt: st.attempt, Truth: p.Truth[e], K: need, Deadline: dl})
			rel.Issued += need
			rel.Reissued += need
			if hedge {
				rel.Hedged++
				mTasksHedged.Inc()
			} else if !st.retried {
				st.retried = true
				rel.Retried++
				mTasksRetry.Inc()
			}
		}
		if len(wave) > 0 {
			tp.Issue(wave)
			n := len(wave)
			tr.Event(obs.SpanReissue, func(s *obs.Span) { s.Tasks = n })
		}
		return maxDl
	}

	// Straggler hedging: peek at the round partway to the deadline and
	// reissue the slowest p% of tasks early, before knowing whether
	// their answers were dropped or merely slow.
	if pol.HedgeFrac > 0 {
		hedgeTick := tp.Now() + int64(pol.HedgeAfter*float64(pol.TaskDeadline))
		if err := collect(hedgeTick); err != nil {
			return asks, err
		}
		cands := missing()
		sort.Slice(cands, func(i, j int) bool {
			ai, aj := len(cur[cands[i]].answers), len(cur[cands[j]].answers)
			if ai != aj {
				return ai < aj
			}
			return cands[i] < cands[j]
		})
		capN := int(math.Ceil(pol.HedgeFrac * float64(len(batch))))
		if len(cands) > capN {
			cands = cands[:capN]
		}
		reissue(cands, pol.TaskDeadline, true)
	}
	if err := collect(deadline); err != nil {
		return asks, err
	}

	// Retry waves with exponential backoff.
	for wave := 1; wave <= pol.MaxRetries; wave++ {
		miss := missing()
		if len(miss) == 0 || budget <= 0 {
			break
		}
		waveDeadline := int64(float64(pol.TaskDeadline) * math.Pow(pol.BackoffBase, float64(wave)))
		maxDl := reissue(miss, waveDeadline, false)
		if maxDl <= tp.Now() {
			break // budget exhausted before anything went out
		}
		if err := collect(maxDl); err != nil {
			return asks, err
		}
	}

	// Collection is complete: hand each task's answers to conclude and
	// commit the round's tallies.
	for i, e := range batch {
		st, t := cur[e], &rep.tasks[i]
		t.n = int32(len(st.answers))
		for _, a := range st.answers {
			t.yes += int32(a.Choice)
		}
		if t.n > 0 && int(t.n) < k {
			rel.Underfilled++
		}
		if opts.Quality == CDBPlus && t.n > 0 {
			rep.remember(e, quality.ChoiceTask{Choices: 2, Answers: st.answers})
		}
	}
	rep.Reliability, rep.retries = rel, budget
	for m, n := range perMarket {
		if rep.PerMarket == nil {
			rep.PerMarket = map[string]int{}
		}
		rep.PerMarket[m] += n
	}
	return asks, nil
}
