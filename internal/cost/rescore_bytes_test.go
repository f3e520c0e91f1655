package cost_test

import (
	"runtime"
	"testing"

	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/dataset"
	"cdb/internal/exec"
)

// TestRescoreBytes: a fresh Expectation's first rescore allocates its
// Eq. 1 term table by bundle — a float64 term and an int32 epoch each,
// 12 B — plus a score per edge and the order of the valid uncolored
// edges, 16 B per edge at most, and a small constant. A table sized by
// vertices × predicates (paper 3J2S at 0.12: 441 × 5 against 812
// bundles) does not fit. The graph's own scratch (validity facts, the
// cut journal) is warmed by an earlier rescore, and Order's copy of the
// order is not the rescore's, so it is subtracted.
func TestRescoreBytes(t *testing.T) {
	st, err := cql.Parse(dataset.Queries("paper")["3J2S"])
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.GenPaper(dataset.Config{Seed: 1, Scale: 0.12})
	cfg := exec.DefaultPlanConfig()
	cfg.LiveOnly = true
	p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := p.G
	new(cost.Expectation).Order(g) // warms the graph's scratch

	const runs = 5
	var before, after runtime.MemStats
	var copied int
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		copied += 8 * cap(new(cost.Expectation).Order(g))
	}
	runtime.ReadMemStats(&after)
	got := (int(after.TotalAlloc-before.TotalAlloc) - copied) / runs

	bundles, edges := g.NumBundles(), g.NumEdges()
	if vp := g.NumVertices() * len(g.S.Preds); bundles >= vp {
		t.Fatalf("%d bundles for %d vertices × predicates: the case cannot tell the two apart", bundles, vp)
	}
	const slack = 512
	if limit := 12*bundles + 16*edges + slack; got > limit {
		t.Fatalf("first rescore: %d B for %d bundles, %d edges (limit %d B)", got, bundles, edges, limit)
	}
	t.Logf("first rescore: %d B for %d bundles (%d vertices × %d predicates), %d edges",
		got, bundles, g.NumVertices(), len(g.S.Preds), edges)
}
