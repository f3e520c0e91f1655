// Package crowd simulates the crowdsourcing platforms CDB deploys to
// (AMT, CrowdFlower, ChinaCrowd). The paper's simulated experiments
// (§6.2) model each worker as a latent accuracy drawn from a Gaussian
// N(q, 0.01); a worker answers a single-choice task correctly with
// that probability and uniformly wrong otherwise. This package
// implements those workers, arrival pools, per-market properties
// (whether the requester controls task assignment, as in AMT's
// developer model), HIT batching/pricing, and a cross-market router.
//
// Algorithms never read a worker's latent accuracy — they only see
// answers, exactly like a real platform.
package crowd

import (
	"fmt"

	"cdb/internal/obs"
	"cdb/internal/stats"
)

// Platform-side metrics: worker arrivals drawn from pools and answers
// produced by simulated workers. The answers:arrivals ratio exposes
// how often CDB+ assignment rejects an arriving worker.
var (
	mArrivals = obs.Default.Counter("cdb_crowd_arrivals_total")
	mAnswers  = obs.Default.Counter("cdb_crowd_answers_total")
)

// TaskType enumerates CDB's four crowd UI templates (§2.1).
type TaskType int

// Task types.
const (
	// SingleChoice asks for one of ℓ options (join/selection tasks are
	// the 2-option "do these match?" case).
	SingleChoice TaskType = iota
	// MultiChoice asks for any subset of ℓ options.
	MultiChoice
	// FillBlank asks for free text (FILL).
	FillBlank
	// Collect asks for new tuples (COLLECT).
	Collect
)

// String implements fmt.Stringer.
func (t TaskType) String() string {
	switch t {
	case SingleChoice:
		return "single-choice"
	case MultiChoice:
		return "multi-choice"
	case FillBlank:
		return "fill-in-blank"
	case Collect:
		return "collection"
	default:
		return fmt.Sprintf("TaskType(%d)", int(t))
	}
}

// Worker is one simulated crowd worker with a latent accuracy.
type Worker struct {
	ID  int
	acc float64
	rng *stats.RNG
}

// LatentAccuracy exposes the hidden accuracy for experiment evaluation
// only; inference algorithms must never call it.
func (w *Worker) LatentAccuracy() float64 { return w.acc }

// AnswerChoice answers a single-choice task with truth ∈ [0, choices):
// correct with probability acc, otherwise uniform over wrong options.
func (w *Worker) AnswerChoice(truth, choices int) int {
	if choices < 2 {
		// A degenerate task with one option is not a crowd answer; it
		// must not inflate cdb_crowd_answers_total.
		return truth
	}
	mAnswers.Inc()
	if w.rng.Bool(w.acc) {
		return truth
	}
	wrong := w.rng.Intn(choices - 1)
	if wrong >= truth {
		wrong++
	}
	return wrong
}

// AnswerBool answers a yes/no task (the join-edge case).
func (w *Worker) AnswerBool(truth bool) bool {
	t := 0
	if truth {
		t = 1
	}
	return w.AnswerChoice(t, 2) == 1
}

// AnswerFill answers a fill-in-blank task: the truth with probability
// acc, otherwise either a distractor from wrongPool or (if empty) a
// corrupted copy of the truth.
func (w *Worker) AnswerFill(truth string, wrongPool []string) string {
	if w.rng.Bool(w.acc) {
		return truth
	}
	if len(wrongPool) > 0 {
		return stats.Pick(w.rng, wrongPool)
	}
	return corrupt(truth, w.rng)
}

// corrupt applies a crude typo to s so that even pool-less wrong
// answers disagree with the truth.
func corrupt(s string, r *stats.RNG) string {
	if len(s) == 0 {
		return "?"
	}
	b := []byte(s)
	i := r.Intn(len(b))
	b[i] = byte('a' + r.Intn(26))
	return string(b) + "~"
}

// Pool is a population of workers with random arrivals.
type Pool struct {
	workers []*Worker
	rng     *stats.RNG
	perm    []int // DistinctArrivals' shuffle scratch
}

// NewPool creates n workers with latent accuracies drawn from
// N(mean, stddev²) clamped to [0.05, 0.99], the paper's §6.2 protocol
// (stddev 0.1 corresponds to the paper's variance 0.01).
func NewPool(n int, mean, stddev float64, rng *stats.RNG) *Pool {
	p := &Pool{rng: rng}
	for i := 0; i < n; i++ {
		p.workers = append(p.workers, &Worker{
			ID:  i,
			acc: rng.NormClamped(mean, stddev, 0.05, 0.99),
			rng: rng.Split(),
		})
	}
	return p
}

// NewPerfectPool creates n infallible workers (latent accuracy 1).
// Useful as an oracle crowd in tests and cost-only experiments where
// answer noise would obscure the quantity being measured.
func NewPerfectPool(n int, rng *stats.RNG) *Pool {
	p := &Pool{rng: rng}
	for i := 0; i < n; i++ {
		p.workers = append(p.workers, &Worker{ID: i, acc: 1, rng: rng.Split()})
	}
	return p
}

// Size returns the worker count.
func (p *Pool) Size() int { return len(p.workers) }

// Workers returns the worker list (shared; do not mutate).
func (p *Pool) Workers() []*Worker { return p.workers }

// Arrive simulates a worker arriving at the platform: uniformly random
// among the pool.
func (p *Pool) Arrive() *Worker {
	mArrivals.Inc()
	return stats.Pick(p.rng, p.workers)
}

// DistinctArrivals draws k distinct workers (k ≤ Size), modelling a
// HIT that forbids repeat judgements by the same worker: the first k of
// rng.Perm(Size) — the same draws in the same order, so the same workers
// and the same stream position — shuffled in the pool's scratch.
func (p *Pool) DistinctArrivals(k int) []*Worker {
	if k > len(p.workers) {
		k = len(p.workers)
	}
	if len(p.perm) != len(p.workers) {
		p.perm = make([]int, len(p.workers))
	}
	perm := p.perm
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- { // rng.Shuffle, without a call per swap
		j := p.rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := make([]*Worker, k)
	for i := 0; i < k; i++ {
		out[i] = p.workers[perm[i]]
	}
	mArrivals.Add(int64(k))
	return out
}

// Pricing models HIT batching: the paper packs 10 tasks per HIT at
// $0.1 (§6.3).
type Pricing struct {
	TasksPerHIT int
	PricePerHIT float64
}

// DefaultPricing is the paper's AMT configuration.
var DefaultPricing = Pricing{TasksPerHIT: 10, PricePerHIT: 0.1}

// HITs returns the number of HITs needed for the given number of
// task-assignments.
func (p Pricing) HITs(assignments int) int {
	if p.TasksPerHIT <= 0 || assignments <= 0 {
		return 0
	}
	return (assignments + p.TasksPerHIT - 1) / p.TasksPerHIT
}

// Cost returns the dollar cost for the given number of assignments.
func (p Pricing) Cost(assignments int) float64 {
	return float64(p.HITs(assignments)) * p.PricePerHIT
}

// Market is one crowdsourcing platform instance. AssignControl mirrors
// the AMT developer model (the requester picks which task each
// arriving worker gets); CrowdFlower-style markets route tasks
// round-robin regardless of the requester's wishes (§2.1).
type Market struct {
	Name          string
	AssignControl bool
	Pool          *Pool
	Pricing       Pricing
}

// NewMarket builds a market with the given worker pool.
func NewMarket(name string, assignControl bool, pool *Pool) *Market {
	return &Market{Name: name, AssignControl: assignControl, Pool: pool, Pricing: DefaultPricing}
}

// Router spreads HITs across several markets (the cross-market
// deployment CDB adds over prior systems). Tasks are dealt
// round-robin, weighted by each market's pool size.
type Router struct {
	Markets []*Market
	next    int
}

// NewRouter builds a router over the given markets.
func NewRouter(markets ...*Market) *Router { return &Router{Markets: markets} }

// Route picks the market for the next HIT (simple balanced rotation).
func (r *Router) Route() *Market {
	if len(r.Markets) == 0 {
		return nil
	}
	m := r.Markets[r.next%len(r.Markets)]
	r.next++
	return m
}
