// Package cost implements CDB's cost control (§5.1): selecting the
// cheapest set of crowd tasks that still determines every query
// answer. It provides
//
//   - the optimal known-color selection of Lemma 1 (blue chains +
//     min-cut over a flow network; star-join special rule),
//   - the sampling greedy ("MinCut" method in the paper's
//     experiments): sample colorings from edge probabilities, solve
//     each sample optimally, rank edges by how often samples need
//     them,
//   - the expectation-based method (Eq. 1), CDB's default, and
//   - budget-aware selection (§5.1.3): spend exactly B tasks to
//     maximize found answers.
//
// Each method is exposed as a Strategy: the executor repeatedly calls
// NextRound, crowdsources the returned batch, colors the graph with
// the inferred answers, and calls again until the strategy is done.
//
// The default Expectation strategy rescores every remaining edge after
// each round that coloured one, as Algorithm 1 does: a packed round asks
// an edge in every component that still has an askable one, so no
// component's scores survive it. What a rescore does share is Eq. 1's
// α/β term — a property of a (tuple, predicate) bundle, not of an edge —
// so each bundle's term is computed once and every edge's score is the
// sum of its two endpoints' terms. The result is bit-identical to a
// per-edge rescan — the test-only reference NaiveExpectation
// (naive_test.go) and the property tests in this package enforce the
// equivalence.
//
// Expectation is also the only labeling-order mechanism: a planned join
// order (internal/plan) is the same strategy with a leading
// predicate-priority key ahead of Eq. 1 in its one comparator — so the
// planner and the conflict-free packing compose instead of replacing
// one another.
package cost

import (
	"math"
	"slices"
	"time"

	"cdb/internal/graph"
	"cdb/internal/latency"
	"cdb/internal/obs"
)

// Strategy produces, round by round, the tasks to crowdsource. A nil
// or empty batch signals completion. Flush returns everything the
// strategy still considers necessary, for latency-constrained
// execution (Fig. 22) where the last permitted round floods all
// remaining tasks.
type Strategy interface {
	Name() string
	NextRound(g *graph.Graph) []int
	Flush(g *graph.Graph) []int
}

// Rescore metrics (once-per-round updates, not per-edge): a "full"
// rescore scored and sorted every remaining edge — the only kind.
var (
	mRescoreFull = obs.Default.Counter("cdb_cost_rescore_full_total")
	mScoredEdges = obs.Default.Histogram("cdb_cost_scored_edges_per_rescore", obs.SizeBuckets)
	// Bundle terms computed for those edges: edges ÷ terms is how many
	// edges shared each hypothetical cut.
	mBundleTerms = obs.Default.Counter("cdb_cost_bundle_terms_total")
	mRescoreSecs = obs.Default.Histogram("cdb_cost_rescore_seconds", obs.DurationBuckets)
)

// Expectation is CDB's default task-selection strategy: rank every
// valid uncolored edge by its pruning expectation (Eq. 1) and ask the
// largest conflict-free prefix in parallel each round.
//
// The struct carries the rescore's scratch buffers, so it must not be
// shared between goroutines; one strategy value drives one execution
// at a time (it may be reused across graphs — every call rescores the
// graph it is handed).
type Expectation struct {
	// Serial disables the latency scheduler (one task per round); used
	// only by ablations.
	Serial bool

	// Priority, when non-nil, is the leading key of the ordering: each
	// predicate's rank (indexed by predicate, smaller first) in a planned
	// join order, so every edge of a better-ranked predicate sorts ahead
	// of every edge of a worse one. Nil is the paper's order.
	// plan.Decision.Strategy is where a plan sets it, and says what the
	// key does to the rounds.
	Priority []int

	// The last rescore's result, reused as the next one's buffers.
	score []float64 // dense, by edge id
	order []int     // valid uncolored edges, best first

	// Bundle-term table of the current rescore, dense by the graph's
	// bundle index (graph.BundleIndex): term[i] is valid iff
	// termEpoch[i] == epoch, so starting a rescore is one increment, not
	// a clear.
	term      []float64
	termEpoch []int32
	epoch     int32
	nTerms    int // terms computed by the current rescore

	// Rescore total (see CacheStats) and the per-query tracer the
	// executor may install; both are inert by default.
	statFull uint64
	tracer   *obs.Tracer
}

// Name implements Strategy.
func (e *Expectation) Name() string { return "CDB" }

// Order ranks valid uncolored edges by pruning expectation,
// descending; ties broken by smaller weight first (cheaper to refute),
// then id for determinism. The returned slice is the caller's to keep.
func (e *Expectation) Order(g *graph.Graph) []int {
	order, _ := e.orderScored(g)
	return append([]int(nil), order...)
}

// OrderScored additionally returns each edge's pruning expectation as
// a dense slice indexed by edge id, which the latency scheduler uses
// to decide which tasks may share a round. Both returned slices are
// the caller's to keep.
func (e *Expectation) OrderScored(g *graph.Graph) ([]int, []float64) {
	order, score := e.orderScored(g)
	return append([]int(nil), order...), append([]float64(nil), score...)
}

// NextRound implements Strategy.
func (e *Expectation) NextRound(g *graph.Graph) []int {
	sc := e.tracer.Begin(obs.SpanScore)
	order, score := e.orderScored(g)
	e.tracer.Mutate(sc, func(s *obs.Span) { s.Edges = len(order) })
	e.tracer.End(sc)
	if len(order) == 0 {
		return nil
	}
	bt := e.tracer.Begin(obs.SpanBatch)
	var batch []int
	if e.Serial {
		batch = latency.SerialBatch(g, order)
	} else {
		batch = latency.ParallelBatchScored(g, order, score)
	}
	e.tracer.Mutate(bt, func(s *obs.Span) { s.Tasks = len(batch) })
	e.tracer.End(bt)
	return batch
}

// SetTracer implements obs.TraceCarrier: the executor attributes the
// strategy's scoring and batching phases to the current query's round
// spans. A nil tracer (the default) keeps both phases span-free.
func (e *Expectation) SetTracer(t *obs.Tracer) { e.tracer = t }

// CacheStats implements obs.CacheStatser with the monotone total of
// rescores. Every rescore is full: delta and hit are 0, and stay
// results until a benchmark-archetype PR retires the benchmark's
// delta-rescore and order-hit metrics, which read them.
func (e *Expectation) CacheStats() (full, delta, hit uint64) {
	return e.statFull, 0, 0
}

// Flush implements Strategy: everything valid and uncolored.
func (e *Expectation) Flush(g *graph.Graph) []int {
	return g.ValidUncolored()
}

// TransBatch returns batch unchanged. It remains only because the
// benchmark's staged driver (benchmark/trace.go) calls it, and that
// module changes only together with the benchmark's definition; it goes
// when the driver stops calling it.
func TransBatch(_ *graph.Graph, _ *graph.Closure, batch []int) []int { return batch }

// orderScored returns the current ordering and dense scores:
// revalidate, then rescore what is left. The returned slices are owned
// by the strategy and valid until the next call.
func (e *Expectation) orderScored(g *graph.Graph) ([]int, []float64) {
	g.Revalidate()
	start := time.Now()
	e.statFull++
	mRescoreFull.Inc()
	e.rescoreAll(g)
	mRescoreSecs.Observe(time.Since(start).Seconds())
	return e.order, e.score
}

// rescoreAll scores and sorts every valid uncolored edge.
func (e *Expectation) rescoreAll(g *graph.Graph) {
	e.order = g.ValidUncoloredInto(e.order)
	if len(e.score) != g.NumEdges() {
		e.score = make([]float64, g.NumEdges())
	}
	e.scoreEdges(g, e.order)
	e.sortEdges(g, e.order)
}

// sortEdges orders edges by the labeling order. The keys in force are
// chosen once per sort: without a planned priority the comparator is
// plain Eq. 1, so the default path pays this one branch per rescore and
// none per comparison.
func (e *Expectation) sortEdges(g *graph.Graph, edges []int) {
	if e.Priority == nil {
		sortEdgesByScore(g, edges, e.score)
		return
	}
	slices.SortFunc(edges, func(a, b int) int {
		return cmpLess(e.less(g, a, b))
	})
}

// less is the labeling order with every key: planned predicate rank
// ascending, then Eq. 1 — a strict total order because its last key is
// one.
func (e *Expectation) less(g *graph.Graph, a, b int) bool {
	if e.Priority != nil {
		_, _, pa := g.Ends(a)
		_, _, pb := g.Ends(b)
		if ra, rb := e.Priority[pa], e.Priority[pb]; ra != rb {
			return ra < rb
		}
	}
	return scoredLess(g, e.score, a, b)
}

// scoreEdges fills e.score for the given edges. Many edges share a
// bundle — every edge of a tuple on one predicate has that bundle as an
// endpoint — and a bundle's term costs a hypothetical cut, so each
// distinct (tuple, predicate) among the edges is evaluated once and
// looked up thereafter. The sum has PruningExpectation's operands in
// PruningExpectation's order, hence its float bits.
func (e *Expectation) scoreEdges(g *graph.Graph, edges []int) {
	mScoredEdges.Observe(float64(len(edges)))
	if n := g.NumBundles(); len(e.term) != n || e.epoch == math.MaxInt32 {
		e.term = make([]float64, n)
		e.termEpoch = make([]int32, n)
		e.epoch = 0
	}
	e.epoch++
	e.nTerms = 0
	for _, id := range edges {
		u, v, pred := g.Ends(id)
		bu, bv := g.EdgeBundles(id)
		e.score[id] = e.bundle(g, bu, u, pred) + e.bundle(g, bv, v, pred)
	}
	mBundleTerms.Add(int64(e.nTerms))
}

// bundle returns bundleTerm(g, v, pred), the term of bundle i,
// computing it on the first request of the current rescore.
func (e *Expectation) bundle(g *graph.Graph, i, v, pred int) float64 {
	if e.termEpoch[i] != e.epoch {
		e.termEpoch[i] = e.epoch
		e.term[i] = bundleTerm(g, v, pred)
		e.nTerms++
	}
	return e.term[i]
}

// scoredLess is the expectation ordering: score descending, then
// weight ascending (cheaper to refute), then id — a strict total
// order, so the sort has one result whatever algorithm runs it.
func scoredLess(g *graph.Graph, score []float64, a, b int) bool {
	if score[a] != score[b] {
		return score[a] > score[b]
	}
	if wa, wb := g.Weight(a), g.Weight(b); wa != wb {
		return wa < wb
	}
	return a < b
}

func sortEdgesByScore(g *graph.Graph, edges []int, score []float64) {
	slices.SortFunc(edges, func(a, b int) int {
		return cmpLess(scoredLess(g, score, a, b))
	})
}

// cmpLess turns a strict total order's less(a, b), asked of two distinct
// edge ids, into the three-way result slices.SortFunc wants.
func cmpLess(less bool) int {
	if less {
		return -1
	}
	return 1
}

// PruningExpectation computes Eq. 1 for edge id: the expected number
// of tasks saved by asking it, from both endpoint bundles. It is the
// per-edge reference the test-only NaiveExpectation and the property
// tests score with; Expectation.scoreEdges shares the bundle terms between edges.
func PruningExpectation(g *graph.Graph, id int) float64 {
	e := g.Edge(id)
	return bundleTerm(g, e.U, e.Pred) + bundleTerm(g, e.V, e.Pred)
}

// bundleTerm is one side of Eq. 1: the probability that every uncolored
// edge of tuple v on pred is refuted, spread over those edges, times
// the tasks that cut would save. A bundle containing a blue edge can
// never fully disconnect, so its term is zero.
func bundleTerm(g *graph.Graph, v, pred int) float64 {
	prod := 1.0
	x := 0
	for _, eid := range g.EdgesAt(v, pred) {
		switch g.Color(int(eid)) {
		case graph.Blue:
			return 0 // bundle cannot be fully cut
		case graph.Unknown:
			prod *= 1 - g.Weight(int(eid))
			x++
		}
	}
	if x == 0 {
		return 0
	}
	loss, _ := g.CutLoss(v, pred)
	return prod / float64(x) * float64(loss)
}
