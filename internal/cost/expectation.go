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
// predicate-priority key in its one comparator, and transitive inference
// a second key (expected yield) ahead of Eq. 1 — so the planner, the
// closure and the conflict-free packing compose instead of replacing
// one another.
package cost

import (
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

	// closure, when set via SetClosure, is the transitive-inference
	// overlay: edges whose label it already entails are excluded from
	// the ordering (they cost a HIT but reveal nothing), and the
	// ordering becomes expected-optimal for inference — candidates are
	// ranked first by expected inference yield (matching probability ×
	// endpoint cluster sizes: a likely-Blue answer inside large clusters
	// entails the most labels for free), with the pruning expectation of
	// Eq. 1 breaking ties.
	closure *graph.Closure

	// The last rescore's result, reused as the next one's buffers.
	score []float64 // dense, by edge id
	order []int     // valid uncolored (and not entailed) edges, best first
	yield []float64 // dense inference yields (closure mode only)

	// Bundle-term table of the current rescore, dense by
	// vertex*nPreds+pred: term[i] is valid iff termEpoch[i] == epoch, so
	// starting a rescore is one increment, not a clear.
	term      []float64
	termEpoch []int
	epoch     int
	nPreds    int // row stride of the table
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
		batch = TransBatch(g, e.closure, latency.ParallelBatchScored(g, order, score))
	}
	e.tracer.Mutate(bt, func(s *obs.Span) { s.Tasks = len(batch) })
	e.tracer.End(bt)
	return batch
}

// SetTracer implements obs.TraceCarrier: the executor attributes the
// strategy's scoring and batching phases to the current query's round
// spans. A nil tracer (the default) keeps both phases span-free.
func (e *Expectation) SetTracer(t *obs.Tracer) { e.tracer = t }

// SetClosure installs (or, with nil, removes) a transitive-inference
// overlay. The executor calls this when Options.Transitive is on; the
// overlay must belong to the same graph the strategy is driving.
func (e *Expectation) SetClosure(c *graph.Closure) { e.closure = c }

// CacheStats implements obs.CacheStatser with the monotone total of
// rescores. Every rescore is full: delta and hit are 0, and stay
// results until a benchmark-archetype PR retires the benchmark's
// delta-rescore and order-hit metrics, which read them.
func (e *Expectation) CacheStats() (full, delta, hit uint64) {
	return e.statFull, 0, 0
}

// Flush implements Strategy: everything valid and uncolored, minus
// edges whose label the overlay already entails — a flush round must
// not spend HITs on answers inference provides for free.
func (e *Expectation) Flush(g *graph.Graph) []int {
	return closureFilter(g.ValidUncolored(), e.closure)
}

// TransBatch drops every batch edge whose label the round's other
// answers could entail, so inference gets a chance to answer it for
// free: per predicate, the edges asked together must connect the
// closure's current clusters as a forest. A cycle-closing edge is
// determined by the rest of its cycle whenever those answers chain
// (all Blue, or a Blue path plus one Red), so asking it in the same
// round can only waste HITs — deferring it costs at most a round of
// latency, never a task. The batch arrives in priority order, so the
// most valuable edges of each would-be cycle survive; the scan is a
// pure function of (batch order, closure state), keeping rounds
// deterministic. Filters in place. A nil closure passes through.
func TransBatch(g *graph.Graph, c *graph.Closure, batch []int) []int {
	if c == nil || len(batch) == 0 {
		return batch
	}
	// Batch-local union-find over closure cluster roots. Roots embed
	// the predicate, so clusters of different predicates never meet.
	parent := make(map[int]int, 2*len(batch))
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	kept := batch[:0]
	for _, id := range batch {
		ed := g.Edge(id)
		ra := find(c.ClusterRoot(ed.Pred, ed.U))
		rb := find(c.ClusterRoot(ed.Pred, ed.V))
		if ra == rb {
			continue // would close a cluster cycle: entailable, defer
		}
		parent[ra] = rb
		kept = append(kept, id)
	}
	return kept
}

// closureFilter drops entailed edges from a batch in place. A nil
// closure passes the batch through; otherwise the closure is brought
// up to date first.
func closureFilter(edges []int, c *graph.Closure) []int {
	if c == nil {
		return edges
	}
	c.Update()
	kept := edges[:0]
	for _, id := range edges {
		if _, _, ok := c.Entails(id); !ok {
			kept = append(kept, id)
		}
	}
	return kept
}

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

// rescoreAll scores and sorts every valid uncolored edge (minus
// entailed ones in closure mode; closureFilter brings the overlay up
// to date first).
func (e *Expectation) rescoreAll(g *graph.Graph) {
	e.order = closureFilter(g.ValidUncoloredInto(e.order), e.closure)
	if len(e.score) != g.NumEdges() {
		e.score = make([]float64, g.NumEdges())
	}
	e.scoreEdges(g, e.order)
	e.computeYields(g, e.order)
	e.sortEdges(g, e.order)
}

// computeYields fills the dense yield cache for the given edges in
// closure mode: W · (|cluster(U)|·|cluster(V)| − 1), the expected
// number of *other* labels an answer to this edge would entail (every
// cluster-pair combination beyond the asked edge itself), weighted by
// the matching probability because Blue answers merge clusters and
// compound future inference. Between two singletons the yield is zero,
// so the ordering degrades exactly to the Eq. 1 pruning expectation
// until clusters form.
func (e *Expectation) computeYields(g *graph.Graph, edges []int) {
	if e.closure == nil {
		return
	}
	if len(e.yield) != g.NumEdges() {
		e.yield = make([]float64, g.NumEdges())
	}
	for _, id := range edges {
		e.yield[id] = inferenceYield(g, e.closure, id)
	}
}

// inferenceYield is the expected-optimal labeling key of one edge.
func inferenceYield(g *graph.Graph, c *graph.Closure, id int) float64 {
	ed := g.Edge(id)
	pairs := float64(c.ClusterSize(ed.Pred, ed.U)) * float64(c.ClusterSize(ed.Pred, ed.V))
	return ed.W * (pairs - 1)
}

// sortEdges orders edges by the labeling order. The keys in force are
// chosen once per sort: with neither a planned priority nor a closure
// the comparator is plain Eq. 1, so the default path pays this one
// branch per rescore and none per comparison.
func (e *Expectation) sortEdges(g *graph.Graph, edges []int) {
	if e.Priority == nil && e.closure == nil {
		sortEdgesByScore(g, edges, e.score)
		return
	}
	slices.SortFunc(edges, func(a, b int) int {
		return cmpLess(e.less(g, a, b))
	})
}

// less is the labeling order with every key: planned predicate rank
// ascending, then (closure mode) expected inference yield, then Eq. 1 —
// a strict total order because its last key is one.
func (e *Expectation) less(g *graph.Graph, a, b int) bool {
	if e.Priority != nil {
		if ra, rb := e.Priority[g.Edge(a).Pred], e.Priority[g.Edge(b).Pred]; ra != rb {
			return ra < rb
		}
	}
	if e.closure != nil {
		return yieldLess(g, e.score, e.yield, a, b)
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
	e.nPreds = len(g.S.Preds)
	if n := g.NumVertices() * e.nPreds; len(e.term) != n {
		e.term = make([]float64, n)
		e.termEpoch = make([]int, n)
		e.epoch = 0
	}
	e.epoch++
	e.nTerms = 0
	for _, id := range edges {
		ed := g.Edge(id)
		e.score[id] = e.bundle(g, ed.U, ed.Pred) + e.bundle(g, ed.V, ed.Pred)
	}
	mBundleTerms.Add(int64(e.nTerms))
}

// bundle returns bundleTerm(g, v, pred), computing it on the first
// request of the current rescore.
func (e *Expectation) bundle(g *graph.Graph, v, pred int) float64 {
	i := v*e.nPreds + pred
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
	if wa, wb := g.Edge(a).W, g.Edge(b).W; wa != wb {
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

// yieldLess is the expected-optimal labeling order used in closure
// mode: expected inference yield descending (ask the likely-Blue pair
// whose answer entails the most other labels first), with the plain
// expectation order breaking ties — still a strict total order.
func yieldLess(g *graph.Graph, score, yield []float64, a, b int) bool {
	if yield[a] != yield[b] {
		return yield[a] > yield[b]
	}
	return scoredLess(g, score, a, b)
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
		switch ed := g.Edge(eid); ed.Color {
		case graph.Blue:
			return 0 // bundle cannot be fully cut
		case graph.Unknown:
			prod *= 1 - ed.W
			x++
		}
	}
	if x == 0 {
		return 0
	}
	loss, _ := g.CutLoss(v, pred)
	return prod / float64(x) * float64(loss)
}
