package stats

import (
	"fmt"
	"math"
)

// Metrics is the triple of crowdsourcing optimization goals the paper
// evaluates for every method: monetary cost (#tasks asked), latency
// (#rounds of crowd interaction), and result quality (F-measure).
type Metrics struct {
	Tasks     int     // number of crowd tasks issued (cost proxy, §6.1)
	Rounds    int     // number of crowd interaction rounds (latency proxy)
	Precision float64 // fraction of returned answers that are correct
	Recall    float64 // fraction of correct answers that were returned
}

// F1 returns the harmonic mean of precision and recall, the paper's
// quality metric. Zero if both are zero.
func (m Metrics) F1() float64 { return F1(m.Precision, m.Recall) }

// F1 computes the F-measure from a precision/recall pair.
func F1(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// PrecisionRecall compares a returned answer set against the ground
// truth. Both sets are identified by comparable keys.
func PrecisionRecall[K comparable](returned, truth map[K]bool) (precision, recall float64) {
	if len(returned) == 0 {
		if len(truth) == 0 {
			return 1, 1
		}
		return 0, 0
	}
	correct := 0
	for k := range returned {
		if truth[k] {
			correct++
		}
	}
	precision = float64(correct) / float64(len(returned))
	if len(truth) == 0 {
		recall = 1
	} else {
		recall = float64(correct) / float64(len(truth))
	}
	return precision, recall
}

// onlineStat tracks one metric component's running mean, spread and
// range with Welford's online algorithm: numerically stable, O(1)
// memory, no stored samples.
type onlineStat struct {
	mean, m2 float64
	min, max float64
}

func (s *onlineStat) add(x float64, n int) {
	if n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(n)
	s.m2 += d * (x - s.mean)
}

// stddev is the sample standard deviation (n-1 denominator); zero for
// fewer than two observations.
func (s *onlineStat) stddev(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(n-1))
}

// Agg accumulates Metrics over experiment repetitions, mirroring the
// paper's "repeat 1K times and report the average" protocol — but it
// keeps the distribution, not just the sum: per-component min/max and
// Welford online variance, so the benchmark harness can attach
// confidence intervals to every reported mean.
type Agg struct {
	n                                    int
	tasks, rounds, precision, recall, f1 onlineStat
}

// Add folds one repetition into the aggregate.
func (a *Agg) Add(m Metrics) {
	a.n++
	a.tasks.add(float64(m.Tasks), a.n)
	a.rounds.add(float64(m.Rounds), a.n)
	a.precision.add(m.Precision, a.n)
	a.recall.add(m.Recall, a.n)
	a.f1.add(m.F1(), a.n)
}

// Mean returns the component-wise means. F-measure is averaged per
// repetition (mean of F1s), not recomputed from mean P/R.
func (a *Agg) Mean() (tasks, rounds, precision, recall, f1 float64) {
	if a.n == 0 {
		return 0, 0, 0, 0, 0
	}
	return a.tasks.mean, a.rounds.mean, a.precision.mean, a.recall.mean, a.f1.mean
}

// Stddev returns the component-wise sample standard deviations (zero
// with fewer than two repetitions).
func (a *Agg) Stddev() (tasks, rounds, precision, recall, f1 float64) {
	return a.tasks.stddev(a.n), a.rounds.stddev(a.n), a.precision.stddev(a.n),
		a.recall.stddev(a.n), a.f1.stddev(a.n)
}

// Min returns the component-wise minima (zeros when empty).
func (a *Agg) Min() (tasks, rounds, precision, recall, f1 float64) {
	return a.tasks.min, a.rounds.min, a.precision.min, a.recall.min, a.f1.min
}

// Max returns the component-wise maxima (zeros when empty).
func (a *Agg) Max() (tasks, rounds, precision, recall, f1 float64) {
	return a.tasks.max, a.rounds.max, a.precision.max, a.recall.max, a.f1.max
}

// CI95 returns the half-width of the 95% confidence interval of each
// mean (1.96·stddev/√n, the normal approximation); zeros with fewer
// than two repetitions.
func (a *Agg) CI95() (tasks, rounds, precision, recall, f1 float64) {
	if a.n < 2 {
		return 0, 0, 0, 0, 0
	}
	h := 1.96 / math.Sqrt(float64(a.n))
	return h * a.tasks.stddev(a.n), h * a.rounds.stddev(a.n), h * a.precision.stddev(a.n),
		h * a.recall.stddev(a.n), h * a.f1.stddev(a.n)
}

// String renders the aggregate in the compact form used by the
// benchmark harness output.
func (a *Agg) String() string {
	t, r, p, rec, f := a.Mean()
	return fmt.Sprintf("tasks=%.1f rounds=%.1f P=%.3f R=%.3f F1=%.3f", t, r, p, rec, f)
}

// Entropy returns the Shannon entropy (natural log) of a probability
// distribution; terms with p<=0 contribute zero. Used by the
// task-assignment objective (Eq. 3).
func Entropy(p []float64) float64 {
	var h float64
	for _, pi := range p {
		if pi > 0 {
			h -= pi * math.Log(pi)
		}
	}
	return h
}
