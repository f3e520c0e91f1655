// Package latency implements CDB's round-based latency control (§5.2).
// Two tasks conflict when they can appear in the same candidate — then
// answering one may prune the other, so asking both in one round can
// waste money. Each round the scheduler packs a maximal conflict-free
// set from the cost-ordered task list (deferring a task while a
// clearly more valuable pending task touches the same tuple on another
// predicate). The same-candidate test is exact and asked once per
// task, against an index of the tasks already packed
// (graph.ConflictIndex), not once per packed task. See DESIGN.md §6 for
// why the whole order is packed rather than the literal longest prefix
// of the paper's pseudo-code.
package latency

import (
	"sync"

	"cdb/internal/graph"
	"cdb/internal/obs"
)

// Scheduler metrics, updated once per scheduled batch: how many
// batches were packed and how large they came out (latency control is
// working when batch sizes track the per-predicate gate counts, not 1),
// and what the conflict tests behind them cost: tests asked, and tuples
// their walks visited (steps per test is the neighbourhood a test had to
// look at; it should stay near the tuple degree, far below batch size).
var (
	mBatches       = obs.Default.Counter("cdb_latency_batches_total")
	mBatchSize     = obs.Default.Histogram("cdb_latency_batch_size", obs.SizeBuckets)
	mConflictTests = obs.Default.Counter("cdb_latency_conflict_tests_total")
	mConflictSteps = obs.Default.Counter("cdb_latency_conflict_walk_steps_total")
)

// batchScratch holds ParallelBatchScored's per-round dense scratch
// slices. Rounds over large graphs need a few hundred KB of zeroed
// scratch; recycling it through a pool leaves the returned batch as the
// steady-state scheduler's only allocation.
type batchScratch struct {
	bestRank  []int
	rankOf    []int
	batch     []int
	conflicts graph.ConflictIndex // the tasks packed so far
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grabInts returns a zeroed int slice of length n backed by buf when
// capacity allows.
func grabInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// ParallelBatchScored selects the sub-sequence of order (task ids, most
// valuable first) that can be crowdsourced simultaneously: it scans
// the whole priority order and greedily packs every task that does not
// conflict with an already-packed one (a maximal conflict-free set
// honouring the cost ordering). Components never conflict with one
// another, and two edges conflict only when they can co-occur in a
// candidate (§5.2). Edges that are already colored or invalid are
// skipped. An empty result means order carried no askable edge.
//
// The paper's pseudo-code describes a stricter longest-prefix rule;
// packing the full scan keeps the same correctness guarantee (no batch
// member can prune another directly) while matching the round counts
// the paper reports (≈ one round per predicate on the benchmark
// queries).
//
// score carries the cost scores behind the order, dense by edge id: an
// edge is deferred only behind a strictly more valuable pending edge at
// the same tuple (score more than double), so co-equal gates share a
// round and the round count stays near one per predicate while the
// cheap-gate-first inference is preserved. A nil score defers an edge
// behind any earlier gate at the same tuple.
func ParallelBatchScored(g *graph.Graph, order []int, score []float64) []int {
	g.Revalidate()
	nPreds := len(g.S.Preds)

	// Priority-aware deferral: an edge waits when a higher-priority
	// valid edge touches one of its endpoints on a DIFFERENT predicate
	// — that edge is this tuple's "gate", and its answer may prune this
	// one. Per-tuple gates of every predicate still go out together, so
	// rounds stay near one-per-predicate while preserving inference.
	// bestRank[v*nPreds+pred] is the best (smallest) scan rank of a
	// valid uncolored edge at vertex v and predicate, stored as rank+1
	// so the zero value means "unset" and the dense slices need no
	// -1 fill. Edge and vertex ids are dense, so flat slices replace
	// the former maps.
	sc := scratchPool.Get().(*batchScratch)
	defer scratchPool.Put(sc)
	bestRank := grabInts(sc.bestRank, g.NumVertices()*nPreds)
	rankOf := grabInts(sc.rankOf, g.NumEdges())
	sc.bestRank, sc.rankOf = bestRank, rankOf
	for rank, e := range order {
		ed := g.Edge(e)
		if ed.Color != graph.Unknown || !g.IsValid(e) {
			continue
		}
		if rankOf[e] != 0 {
			continue
		}
		rankOf[e] = rank + 1
		for _, v := range [2]int{ed.U, ed.V} {
			key := v*nPreds + ed.Pred
			if r := bestRank[key]; r == 0 || rank+1 < r {
				bestRank[key] = rank + 1
			}
		}
	}

	packed := &sc.conflicts
	packed.Reset(g)
	batch := sc.batch[:0]

	for _, e := range order {
		ed := g.Edge(e)
		if ed.Color != graph.Unknown || !g.IsValid(e) {
			continue
		}
		rank := rankOf[e] - 1
		deferred := false
		for _, v := range [2]int{ed.U, ed.V} {
			for _, q := range g.TablePreds(g.TableOf(v)) {
				if q == ed.Pred {
					continue
				}
				r := bestRank[v*nPreds+q] - 1
				if r < 0 || r >= rank {
					continue
				}
				if score != nil {
					// Only a clearly more valuable gate defers us;
					// near-equals are asked together.
					blocker := order[r]
					if !(score[blocker] > 2*score[e]+1e-9) {
						continue
					}
				}
				deferred = true
				break
			}
			if deferred {
				break
			}
		}
		if deferred || packed.Conflicts(e) {
			continue
		}
		packed.Add(e)
		batch = append(batch, e)
	}
	mBatches.Inc()
	mBatchSize.Observe(float64(len(batch)))
	mConflictTests.Add(int64(packed.Tests))
	mConflictSteps.Add(int64(packed.Steps))
	packed.Reset(nil) // a pooled index must not pin the graph
	sc.batch = batch
	if len(batch) == 0 {
		return nil
	}
	return append([]int(nil), batch...)
}

// SerialBatch returns just the first askable task of order — the
// no-latency-control baseline used in ablations.
func SerialBatch(g *graph.Graph, order []int) []int {
	g.Revalidate()
	for _, e := range order {
		if g.Edge(e).Color == graph.Unknown && g.IsValid(e) {
			return []int{e}
		}
	}
	return nil
}
