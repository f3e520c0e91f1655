// Package quality implements CDB's quality control (§5.3): truth
// inference and task assignment for single-choice, multi-choice,
// fill-in-blank and collection tasks.
//
// Truth inference models each worker as an accuracy q_w ∈ [0,1],
// estimated by Expectation-Maximization over all answers, and derives
// each task's truth by Bayesian voting (Eq. 2). Fill-in-blank truth is
// the "pivot" answer maximizing aggregated similarity to the others.
// Task assignment scores single-choice tasks by the expected entropy
// reduction of one more answer (Eq. 3), fill-in-blank tasks by answer
// consistency (Eq. 4) and collection tasks by a completeness score
// backed by a Chao92 cardinality estimate.
package quality

import (
	"math"
	"runtime"
	"sync"

	"cdb/internal/obs"
)

// EMWorkers caps the goroutines used by InferEM's E-step; 0 (the
// default) means GOMAXPROCS. Posteriors are identical for any setting:
// each task's posterior is computed independently and written to its
// own slot (an ordered reduction), and the M-step runs serially over
// tasks in index order.
var EMWorkers = 0

// emParallelThreshold is the task-count below which sharding the E-step
// is not worth the goroutine overhead. A variable so tests can force
// the parallel path on small histories.
var emParallelThreshold = 256

// eStep computes every task's Bayesian posterior into posteriors,
// sharding across EMWorkers goroutines when the history is large. The
// worker-quality map is read-only for the duration of the E-step (the
// M-step mutates it strictly afterwards), so concurrent reads are safe.
func (m *WorkerModel) eStep(tasks []ChoiceTask, posteriors [][]float64) {
	workers := EMWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 || len(tasks) < emParallelThreshold {
		for i, t := range tasks {
			posteriors[i] = BayesianPosterior(t, m.Quality)
		}
		return
	}
	chunk := (len(tasks) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(tasks) {
			break
		}
		hi := lo + chunk
		if hi > len(tasks) {
			hi = len(tasks)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				posteriors[i] = BayesianPosterior(tasks[i], m.Quality)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Truth-inference metrics: EM invocations, how many iterations each
// took to converge, and the task-history size it ran over.
var (
	mEMRuns  = obs.Default.Counter("cdb_quality_em_runs_total")
	mEMIters = obs.Default.Counter("cdb_quality_em_iters_total")
	mEMTasks = obs.Default.Histogram("cdb_quality_em_tasks_per_run", obs.SizeBuckets)
)

// ChoiceAnswer is one worker's judgement on a choice task.
type ChoiceAnswer struct {
	Worker int
	Choice int
}

// ChoiceTask is a single-choice task instance: ℓ options and the
// answers collected so far.
type ChoiceTask struct {
	Choices int
	Answers []ChoiceAnswer
}

// Majority is the majority-voting rule over n binary answers of which
// yes say "match": the verdict is a match when more than half do (a tie
// is a non-match), at the agreeing fraction's confidence. n must be
// positive for the confidence to be defined.
func Majority(yes, n int) (match bool, conf float64) {
	match = 2*yes > n
	conf = float64(yes) / float64(n)
	if !match {
		conf = 1 - conf
	}
	return match, conf
}

// BayesianPosterior computes Eq. 2: the probability of each choice
// being the truth given the answers and each worker's quality. Uses
// log-space accumulation so many answers do not underflow. A task with
// no answers yields the uniform distribution.
func BayesianPosterior(t ChoiceTask, qualityOf func(worker int) float64) []float64 {
	l := t.Choices
	logp := make([]float64, l)
	for _, a := range t.Answers {
		q := clampQ(qualityOf(a.Worker))
		for i := 0; i < l; i++ {
			if i == a.Choice {
				logp[i] += math.Log(q)
			} else {
				logp[i] += math.Log((1 - q) / float64(l-1))
			}
		}
	}
	return normalizeLog(logp)
}

func clampQ(q float64) float64 {
	// Guard the log terms: a "perfect" or "useless" worker estimate
	// would otherwise collapse the posterior.
	if q < 0.01 {
		return 0.01
	}
	if q > 0.99 {
		return 0.99
	}
	return q
}

func normalizeLog(logp []float64) []float64 {
	maxLog := math.Inf(-1)
	for _, v := range logp {
		if v > maxLog {
			maxLog = v
		}
	}
	out := make([]float64, len(logp))
	var sum float64
	for i, v := range logp {
		out[i] = math.Exp(v - maxLog)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// WorkerModel holds per-worker quality estimates persisted across
// rounds (CDB's worker metadata store). The zero value is not usable;
// construct with NewWorkerModel.
type WorkerModel struct {
	// Default is the prior quality for unseen workers (the paper uses
	// 0.7).
	Default float64
	// PriorStrength is the pseudo-count weight of the prior in the EM
	// M-step; it keeps a worker's estimate from collapsing to 0 or 1
	// after a handful of answers.
	PriorStrength float64
	qual          map[int]float64
}

// NewWorkerModel returns a model with the paper's default prior.
func NewWorkerModel() *WorkerModel {
	return &WorkerModel{Default: 0.7, PriorStrength: 8, qual: map[int]float64{}}
}

// Quality returns the current estimate for a worker.
func (m *WorkerModel) Quality(worker int) float64 {
	if q, ok := m.qual[worker]; ok {
		return q
	}
	return m.Default
}

// Set records a quality estimate (used by EM and by golden-task
// bootstrapping).
func (m *WorkerModel) Set(worker int, q float64) { m.qual[worker] = q }

// CalibrateGolden initializes a worker's quality from golden tasks
// (tasks with known ground truth answered on first arrival, the
// bootstrap the paper's §E describes): a prior-smoothed fraction of
// correct answers.
func (m *WorkerModel) CalibrateGolden(worker, correct, total int) {
	if total <= 0 {
		return
	}
	q := (float64(correct) + m.Default*m.PriorStrength) / (float64(total) + m.PriorStrength)
	m.Set(worker, clampQ(q))
}

// InferEM runs Expectation-Maximization over the given single-choice
// tasks: alternate Bayesian posteriors (E) and quality re-estimates
// (M) until convergence or maxIters. It updates the model in place and
// returns the final posterior per task.
func (m *WorkerModel) InferEM(tasks []ChoiceTask, maxIters int) [][]float64 {
	if maxIters <= 0 {
		maxIters = 50
	}
	mEMRuns.Inc()
	mEMTasks.Observe(float64(len(tasks)))
	posteriors := make([][]float64, len(tasks))
	for iter := 0; iter < maxIters; iter++ {
		mEMIters.Inc()
		// E-step (sharded across EMWorkers, deterministic).
		m.eStep(tasks, posteriors)
		// M-step: expected fraction of correct answers per worker.
		sum := map[int]float64{}
		cnt := map[int]int{}
		for i, t := range tasks {
			for _, a := range t.Answers {
				sum[a.Worker] += posteriors[i][a.Choice]
				cnt[a.Worker]++
			}
		}
		maxDelta := 0.0
		for w, c := range cnt {
			// Beta-prior smoothing toward the default quality.
			newQ := (sum[w] + m.Default*m.PriorStrength) / (float64(c) + m.PriorStrength)
			if d := math.Abs(newQ - m.Quality(w)); d > maxDelta {
				maxDelta = d
			}
			m.Set(w, newQ)
		}
		if maxDelta < 1e-6 {
			break
		}
	}
	m.eStep(tasks, posteriors)
	return posteriors
}

// EstimateTruth returns the argmax choice of a posterior, -1 if empty.
func EstimateTruth(posterior []float64) int {
	if len(posterior) == 0 {
		return -1
	}
	best := 0
	for i, p := range posterior {
		if p > posterior[best] {
			best = i
		}
	}
	return best
}

// MultiAnswer is one worker's judgement on a multi-choice task: a
// subset selection over the options.
type MultiAnswer struct {
	Worker   int
	Selected []bool
}

// DecomposeMulti turns a multi-choice task with ℓ options into ℓ
// binary single-choice tasks ("is option i true?"), the paper's
// reduction for both inference and assignment.
func DecomposeMulti(options int, answers []MultiAnswer) []ChoiceTask {
	out := make([]ChoiceTask, options)
	for i := range out {
		out[i].Choices = 2
		for _, a := range answers {
			choice := 0
			if i < len(a.Selected) && a.Selected[i] {
				choice = 1
			}
			out[i].Answers = append(out[i].Answers, ChoiceAnswer{Worker: a.Worker, Choice: choice})
		}
	}
	return out
}

// FillAnswer is one worker's free-text answer.
type FillAnswer struct {
	Worker int
	Text   string
}

// PivotAnswer implements the fill-in-blank truth estimate: the answer
// with the highest aggregated similarity to all other answers. Returns
// "" for no answers. simFn must be symmetric in [0,1].
func PivotAnswer(answers []FillAnswer, simFn func(a, b string) float64) string {
	if len(answers) == 0 {
		return ""
	}
	best, bestScore := 0, math.Inf(-1)
	for i := range answers {
		var s float64
		for j := range answers {
			if i == j {
				continue
			}
			s += simFn(answers[i].Text, answers[j].Text)
		}
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return answers[best].Text
}
