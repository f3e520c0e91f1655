package latency

import (
	"testing"

	"cdb/internal/graph"
	"cdb/internal/stats"
)

// benchBlocks builds a chain graph of disjoint 2-tuple blocks (3 edges
// per predicate per block), mirroring the cost package's benchmark
// shape: thousands of small components, the scheduler's target regime.
func benchBlocks(blocks int, r *stats.RNG) (*graph.Graph, []int, []float64) {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	n := 2 * blocks
	g := graph.MustNewGraph(s, []int{n, n, n})
	for b := 0; b < blocks; b++ {
		for p := range s.Preds {
			g.AddEdge(p, 2*b, 2*b, 0.1+0.8*r.Float64())
			g.AddEdge(p, 2*b, 2*b+1, 0.1+0.8*r.Float64())
			g.AddEdge(p, 2*b+1, 2*b+1, 0.1+0.8*r.Float64())
		}
	}
	order := make([]int, g.NumEdges())
	score := make([]float64, g.NumEdges())
	for i := range order {
		order[i] = i
		score[i] = r.Float64()
	}
	return g, order, score
}

func benchBatch(b *testing.B, blocks int) {
	r := stats.NewRNG(3)
	g, order, score := benchBlocks(blocks, r)
	g.Revalidate()
	b.ReportMetric(float64(g.NumEdges()), "edges")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelBatchScored(g, order, score)
	}
}

func BenchmarkParallelBatchScored2k(b *testing.B)  { benchBatch(b, 400) }
func BenchmarkParallelBatchScored10k(b *testing.B) { benchBatch(b, 1700) }

// BenchmarkScanBatchConnected schedules one round over a single giant
// component (three-predicate chain, tuple degree 3) — where every
// candidate used to be searched against every task already packed.
func BenchmarkScanBatchConnected(b *testing.B) {
	g, order, score := connectedChain(300, 3, stats.NewRNG(3))
	g.Revalidate()
	b.ReportMetric(float64(g.NumEdges()), "edges")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelBatchScored(g, order, score)
	}
}
