package sim

import (
	"strings"
	"time"

	"cdb/internal/obs"
)

// Similarity-join metrics: joins executed, pairs that share a token
// (what the counting probe had to look at) and candidate pairs emitted
// (the edge count of the instantiated query graph, before pruning), so
// pairs/touched is the share of looked-at pairs that reach epsilon.
var (
	mJoins       = obs.Default.Counter("cdb_sim_joins_total")
	mJoinTouched = obs.Default.Counter("cdb_sim_join_touched_total")
	mJoinPairs   = obs.Default.Counter("cdb_sim_join_pairs_total")
	mJoinSeconds = obs.Default.Histogram("cdb_sim_join_seconds", obs.DurationBuckets)
)

// Pair is one candidate match produced by the similarity join: row
// indices into the left and right string slices plus the computed
// similarity (the edge weight of the graph query model).
type Pair struct {
	Left, Right int
	Sim         float64
}

// Join finds all (i, j) with Similarity(f, left[i], right[j]) >= eps,
// in ascending (Left, Right) order.
//
// The Jaccard-family functions run an overlap-counting join (see
// countJoin); EditDistance and Cosine use it over 2-grams at a
// conservative pre-threshold to generate candidates and verify those
// with the exact function; NoSim keeps every pair at weight 0.5, like
// the paper's ablation. A record with an empty token set ("" or all
// whitespace) joins nothing — it gives the crowd nothing to compare —
// although Similarity scores two empty sets as 1.
func Join(f Func, left, right []string, eps float64) []Pair {
	var ps Pairs
	JoinEach(f, left, right, eps, ps.Add)
	return ps.Slice()
}

// JoinEach is Join for a caller that keeps the pairs itself: emit
// receives each one as it is found, in Join's order.
func JoinEach(f Func, left, right []string, eps float64, emit func(Pair)) {
	start := time.Now()
	pairs := 0
	touched := joinPairs(f, left, right, eps, func(p Pair) {
		pairs++
		emit(p)
	})
	mJoins.Inc()
	mJoinTouched.Add(int64(touched))
	mJoinPairs.Add(int64(pairs))
	mJoinSeconds.Observe(time.Since(start).Seconds())
}

// pairChunk is the chunk length of Pairs: 12 KB, an allocator size
// class, and about what append-growing a slice to 256 pairs allocates.
const pairChunk = 512

// Pairs stores emitted pairs once, in fixed-size chunks: growing adds a
// chunk and copies nothing.
type Pairs struct{ chunks [][]Pair }

// Add appends p.
func (ps *Pairs) Add(p Pair) {
	last := len(ps.chunks) - 1
	if last < 0 || len(ps.chunks[last]) == pairChunk {
		ps.chunks = append(ps.chunks, make([]Pair, 0, pairChunk))
		last++
	}
	ps.chunks[last] = append(ps.chunks[last], p)
}

// Chunks returns the stored pairs in order, chunk by chunk. The slices
// are the storage itself.
func (ps *Pairs) Chunks() [][]Pair { return ps.chunks }

// Slice copies the stored pairs into one exactly-sized slice.
func (ps *Pairs) Slice() []Pair {
	if len(ps.chunks) == 0 {
		return nil
	}
	last := len(ps.chunks) - 1
	out := make([]Pair, 0, last*pairChunk+len(ps.chunks[last]))
	for _, c := range ps.chunks {
		out = append(out, c...)
	}
	return out
}

func joinPairs(f Func, left, right []string, eps float64, emit func(Pair)) (touched int) {
	switch f {
	case Gram2Jaccard, TokenJaccard:
		if eps <= 0 {
			// Pairs that share nothing qualify too: score every pair.
			for _, p := range BruteForceJoin(f, left, right, eps) {
				emit(p)
			}
			return 0
		}
		return countJoin(left, right, eps, f == TokenJaccard, emit)
	case EditDistance:
		// Overlap pre-filter: edit similarity >= eps implies the 2-gram
		// sets overlap somewhat; we use a generous Jaccard pre-threshold
		// and verify with the exact function. The pre-threshold below is
		// conservative (2-gram Jaccard of strings within edit distance d
		// of each other degrades roughly linearly in d).
		pre := eps/3 - 0.05
		if pre < 0.05 {
			pre = 0.05
		}
		return verifyJoin(left, right, pre, eps, NormalizedEditSim, emit)
	case Cosine:
		pre := eps * eps / 2
		if pre < 0.05 {
			pre = 0.05
		}
		return verifyJoin(left, right, pre, eps, CosineSim, emit)
	case NoSim:
		for i := range left {
			for j := range right {
				emit(Pair{Left: i, Right: j, Sim: 0.5})
			}
		}
	}
	return 0
}

// verifyJoin keeps the pairs with 2-gram Jaccard >= pre whose exact
// similarity reaches eps.
func verifyJoin(left, right []string, pre, eps float64, exact func(a, b string) float64, emit func(Pair)) (touched int) {
	return countJoin(left, right, pre, false, func(p Pair) {
		if s := exact(left[p.Left], right[p.Right]); s >= eps {
			emit(Pair{Left: p.Left, Right: p.Right, Sim: s})
		}
	})
}

// BruteForceJoin verifies every pair — the reference implementation
// used by tests and the sim-join ablation benchmark. Like Join it gives
// a record without tokens no partner.
func BruteForceJoin(f Func, left, right []string, eps float64) []Pair {
	var out []Pair
	for i := range left {
		if tokenless(f, left[i]) {
			continue
		}
		for j := range right {
			if tokenless(f, right[j]) {
				continue
			}
			if s := Similarity(f, left[i], right[j]); s >= eps {
				out = append(out, Pair{Left: i, Right: j, Sim: s})
			}
		}
	}
	return out
}

// tokenless reports whether s has an empty token set: nothing but
// whitespace, under the 2-gram and the word tokenisation alike. NoSim
// compares no tokens, so nothing is tokenless to it.
func tokenless(f Func, s string) bool {
	return f != NoSim && strings.TrimSpace(s) == ""
}

// countJoin is the Jaccard threshold join (eps > 0) over 2-gram sets,
// or whitespace-token sets when words is set, by overlap counting
// (ScanCount): an inverted index over every right-side token, one
// counter per right record, and for each left record a walk along the
// postings of its tokens that leaves cnt[j] = |a ∩ b_j|. Jaccard is
// then read off the counters as c / (|a| + |b_j| - c). The work is one
// increment per shared token plus one counter read per pair, and the
// pairs reach emit in ascending (Left, Right) order.
//
// There is deliberately no prefix or length filter in front of the
// counters. On the columns this system joins the vocabulary is a few
// hundred 2-grams and the eps = 0.3 prefix is 70 % of a record, so a
// prefix filter passed 90–93 % of all title pairs (15–74 % on short
// names) and each survivor then cost a sorted-merge of |a| + |b|
// branches — about six times the number of tokens the pairs share.
//
// touched counts the pairs that share at least one token.
func countJoin(left, right []string, eps float64, words bool, emit func(Pair)) (touched int) {
	t := newTokenizer(words)
	r, l := t.sets(right), t.sets(left)

	// post[start[id]:start[id+1]] lists the right records holding
	// token id, ascending.
	nTok := len(t.seen)
	start := make([]int32, nTok+1)
	for _, id := range r.ids {
		start[id+1]++
	}
	for id := 0; id < nTok; id++ {
		start[id+1] += start[id]
	}
	post := make([]int32, len(r.ids))
	fill := append([]int32(nil), start[:nTok]...)
	for j := range right {
		for _, id := range r.set(j) {
			post[fill[id]] = int32(j)
			fill[id]++
		}
	}

	cnt := make([]int32, len(right))
	for i := range left {
		a := l.set(i)
		for _, id := range a {
			for _, j := range post[start[id]:start[id+1]] {
				cnt[j]++
			}
		}
		for j, c := range cnt {
			if c == 0 {
				continue
			}
			cnt[j] = 0
			touched++
			union := len(a) + r.size(j) - int(c)
			if s := float64(c) / float64(union); s >= eps {
				emit(Pair{Left: i, Right: j, Sim: s})
			}
		}
	}
	return touched
}
