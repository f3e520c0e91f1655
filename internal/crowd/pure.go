package crowd

import (
	"cdb/internal/quality"
	"cdb/internal/stats"
)

// PureVerdict computes the deterministic crowd verdict for one task as
// a pure function of (seed, key, k) over the pool's latent worker
// accuracies: which k distinct workers answer and whether each answers
// correctly are drawn from a hash-seeded RNG, so the same task asked by
// any caller — in any order, interleaved with any other work — yields
// the same verdict. This is what makes task-level sharing and join
// reordering answer-preserving: the serving engine's coalescer and
// plan.PureResolver both route through it.
//
// k is the requested redundancy (it keys the RNG even when clamped to
// the pool size). Returns the majority value, its confidence (the
// agreeing fraction), and the assignments actually drawn. A pool with
// no workers falls back to the optimizer's prior at confidence 0.5
// with zero assignments.
func PureVerdict(seed uint64, pool *Pool, key string, truth bool, prior float64, k int) (value bool, conf float64, assignments int) {
	workers := pool.Workers()
	n := k
	if n > len(workers) {
		n = len(workers)
	}
	if n <= 0 {
		return prior >= 0.5, 0.5, 0
	}
	r := stats.HashRNG(seed, stats.HashString(key), uint64(k))
	idx := make([]int, len(workers))
	for i := range idx {
		idx[i] = i
	}
	yes := 0
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		w := workers[idx[i]]
		ans := truth
		if r.Float64() >= w.LatentAccuracy() {
			ans = !ans
		}
		if ans {
			yes++
		}
	}
	value, conf = quality.Majority(yes, n)
	return value, conf, n
}
