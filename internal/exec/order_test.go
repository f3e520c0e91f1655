package exec

import (
	"context"
	"math/bits"
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
// the plan binds no edge until a merge asks it, so it ends holding
// exactly the comparisons asked (at most n·⌈log₂n⌉, not n(n−1)/2), the
// run allocates under half of what binding every pair would, and each round
// reports as open the comparisons the sort may still ask, falling to 0.
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

	if bound := n * bits.Len(n); rep.Metrics.Tasks > bound {
		t.Fatalf("sort asked %d comparisons, over n·⌈log₂n⌉ = %d", rep.Metrics.Tasks, bound)
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
	if opens[0] > n*bits.Len(n) || opens[len(opens)-1] != 0 {
		t.Fatalf("open went %d → %d, want at most n·⌈log₂n⌉ → 0", opens[0], opens[len(opens)-1])
	}
}
