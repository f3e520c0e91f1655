package exec

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/obs"
	"cdb/internal/stats"
)

// TestOrderPlanBindsWhatItAsks pins an ORDER BY over many distinct
// values with tracing and a progress hook on, as the engine runs it:
// the plan binds no edge until a part asks it, so it ends holding
// exactly the comparisons asked (at most ⌈2n·ln n⌉, over the expected
// quicksort count 2(n+1)Hₙ − 4n, not n(n−1)/2), the run allocates under
// half of what binding every pair would, and each round reports as open
// the comparisons the current parts ask, falling to 0.
func TestOrderPlanBindsWhatItAsks(t *testing.T) {
	const n = 2000
	values := make([]string, n)
	rng := stats.NewRNG(11)
	for i, k := range rng.Perm(n) {
		values[i] = strconv.Itoa(k)
	}
	pool := crowd.NewPerfectPool(3, stats.NewRNG(12))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, order := OrderPlan(cql.ColRef{Table: "T", Column: "v"}, values)
	if p.G.NumEdges() != 0 {
		t.Fatalf("OrderPlan bound %d edges before any was asked", p.G.NumEdges())
	}
	var opens []int
	rep, err := Run(context.Background(), p, Options{Strategy: order, Pool: pool, Redundancy: 1,
		Trace:    obs.NewTracer(nil),
		Progress: func(u RoundUpdate) { opens = append(opens, u.Open) }})
	if err != nil {
		t.Fatal(err)
	}
	perm := order.Perm(p.G)
	runtime.ReadMemStats(&after)

	bound := int(math.Ceil(2 * n * math.Log(n)))
	if rep.Metrics.Tasks > bound {
		t.Fatalf("sort asked %d comparisons, over ⌈2n·ln n⌉ = %d", rep.Metrics.Tasks, bound)
	}
	if p.G.NumEdges() != rep.Metrics.Tasks || len(p.Truth) != rep.Metrics.Tasks {
		t.Fatalf("plan holds %d edges, %d truths for %d comparisons asked", p.G.NumEdges(), len(p.Truth), rep.Metrics.Tasks)
	}
	// Binding every pair costs about 70 bytes each.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*(n-1)/2*32); got > limit {
		t.Fatalf("sort allocated %d bytes, over 32 per pair (%d)", got, limit)
	}
	for i, k := range perm {
		if values[k] != strconv.Itoa(i) {
			t.Fatalf("position %d holds %s", i, values[k])
		}
	}
	if len(opens) != rep.Metrics.Rounds {
		t.Fatalf("%d progress updates for %d rounds", len(opens), rep.Metrics.Rounds)
	}
	for i := 1; i < len(opens); i++ {
		if opens[i] > opens[i-1] {
			t.Fatalf("open rose from %d to %d in round %d", opens[i-1], opens[i], i+1)
		}
	}
	if opens[0] > bound || opens[len(opens)-1] != 0 {
		t.Fatalf("open went %d → %d, want at most ⌈2n·ln n⌉ → 0", opens[0], opens[len(opens)-1])
	}
}

// TestOrderPlanUnderNoise sorts n distinct values with a noisy crowd,
// 5 answers per comparison, over many seeds, each with its own value
// set and so its own pivots, and bounds the mean share of value pairs
// the sort puts in the wrong order. The limits are the bottom-up merge
// sort's mean plus twice its 95 % half-width on this harness (q = 0.8:
// 0.1075 ± 0.0135; q = 0.9: 0.0227 ± 0.0055).
func TestOrderPlanUnderNoise(t *testing.T) {
	const n, seeds = 300, 20
	for _, tc := range []struct{ q, limit float64 }{{0.8, 0.1075 + 2*0.0135}, {0.9, 0.0227 + 2*0.0055}} {
		var sum, sq float64
		for s := uint64(1); s <= seeds; s++ {
			// n distinct numbers out of 10n, in random row order.
			num := stats.NewRNG(s).Perm(10 * n)[:n]
			values := make([]string, n)
			for i, v := range num {
				values[i] = strconv.Itoa(v)
			}
			p, order := OrderPlan(cql.ColRef{Table: "T", Column: "v"}, values)
			pool := crowd.NewPool(50, tc.q, 0.1, stats.NewRNG(1000+s))
			if _, err := Run(context.Background(), p, Options{Strategy: order, Pool: pool, Redundancy: 5}); err != nil {
				t.Fatal(err)
			}
			perm, wrong := order.Perm(p.G), 0
			for i := range perm {
				for _, k := range perm[i+1:] {
					if num[perm[i]] > num[k] {
						wrong++
					}
				}
			}
			r := float64(wrong) / (n * (n - 1) / 2)
			sum, sq = sum+r, sq+r*r
		}
		mean := sum / seeds
		half := 2.093 * math.Sqrt((sq-seeds*mean*mean)/(seeds-1)/seeds) // t(0.975, 19)
		t.Logf("q = %.1f: %.4f ± %.4f of pairs misordered", tc.q, mean, half)
		if mean > tc.limit {
			t.Errorf("q = %.1f: %.4f of pairs misordered, over the merge sort's limit %.4f", tc.q, mean, tc.limit)
		}
	}
}
