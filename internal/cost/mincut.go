package cost

import (
	"sort"

	"cdb/internal/graph"
	"cdb/internal/latency"
	"cdb/internal/stats"
)

// MinCutSampling is the paper's "MinCut" greedy (§5.1.2): draw S
// sample colorings from the edge probabilities, solve each sample
// optimally with KnownColorSelect, and rank edges by how many samples
// require them. Edges never required by a sample are appended last,
// lightest first, so execution still terminates when sampling was
// unlucky.
type MinCutSampling struct {
	Samples int
	RNG     *stats.RNG
}

// NewMinCutSampling builds the strategy with the given sample count
// (the paper's real experiments use 100) and RNG.
func NewMinCutSampling(samples int, rng *stats.RNG) *MinCutSampling {
	if samples <= 0 {
		samples = 100
	}
	return &MinCutSampling{Samples: samples, RNG: rng}
}

// Name implements Strategy.
func (m *MinCutSampling) Name() string { return "MinCut" }

// Order ranks the valid uncolored edges by sample-occurrence count.
func (m *MinCutSampling) Order(g *graph.Graph) []int {
	order, _ := m.OrderScored(g)
	return order
}

// OrderScored additionally returns the occurrence counts as dense
// scores (indexed by edge id) for the latency scheduler.
func (m *MinCutSampling) OrderScored(g *graph.Graph) ([]int, []float64) {
	g.Revalidate()
	count := make([]int, g.NumEdges())
	sampled := make([]graph.Color, g.NumEdges())
	colorOf := func(e int) graph.Color { return sampled[e] }
	for s := 0; s < m.Samples; s++ {
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(e)
			if ed.Color != graph.Unknown {
				sampled[e] = ed.Color
			} else if m.RNG.Bool(ed.W) {
				sampled[e] = graph.Blue
			} else {
				sampled[e] = graph.Red
			}
		}
		for _, e := range KnownColorSelect(g, colorOf) {
			if g.Edge(e).Color == graph.Unknown {
				count[e]++
			}
		}
	}
	edges := g.ValidUncolored()
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if count[a] != count[b] {
			return count[a] > count[b]
		}
		if wa, wb := g.Edge(a).W, g.Edge(b).W; wa != wb {
			return wa < wb
		}
		return a < b
	})
	score := make([]float64, g.NumEdges())
	for _, e := range edges {
		score[e] = float64(count[e])
	}
	return edges, score
}

// NextRound implements Strategy.
func (m *MinCutSampling) NextRound(g *graph.Graph) []int {
	order, score := m.OrderScored(g)
	if len(order) == 0 {
		return nil
	}
	return latency.ParallelBatchScored(g, order, score)
}

// Flush implements Strategy.
func (m *MinCutSampling) Flush(g *graph.Graph) []int { return g.ValidUncolored() }
