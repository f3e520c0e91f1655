package sim

import (
	"sort"
	"strings"
	"sync"
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
// index), which is exact. EditDistance and Cosine use it over 2-grams
// as a heuristic candidate filter and verify the candidates with the
// exact function; the filter can drop pairs that reach eps ("a corp"
// and "Acme" have edit similarity 0.33 >= 0.3 and share no 2-gram), so
// their pairs are a subset of BruteForceJoin's. NoSim keeps every pair
// at weight 0.5, like the paper's ablation. A record with an empty token set ("" or all
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

// chunkPool recycles the chunks of Pairs a caller hands back.
var chunkPool = sync.Pool{New: func() any { return new([pairChunk]Pair) }}

// Pairs stores emitted pairs once, in fixed-size chunks taken from a
// pool: growing adds a chunk and copies nothing. A caller done with the
// pairs hands the chunks back with Release; one that drops them leaves
// them to the collector.
type Pairs struct {
	chunks [][]Pair // the chunks holding the pairs
	runs   [][]Pair // set by JoinMasked: the pairs in order, as runs of chunks
}

// Add appends p.
func (ps *Pairs) Add(p Pair) {
	last := len(ps.chunks) - 1
	if last < 0 || len(ps.chunks[last]) == pairChunk {
		ps.chunks = append(ps.chunks, chunkPool.Get().(*[pairChunk]Pair)[:0])
		last++
	}
	ps.chunks[last] = append(ps.chunks[last], p)
}

// Chunks returns the stored pairs in order, chunk by chunk (run by run
// after JoinMasked). The slices are the storage itself.
func (ps *Pairs) Chunks() [][]Pair {
	if ps.runs != nil {
		return ps.runs
	}
	return ps.chunks
}

// Slice copies the stored pairs into one exactly-sized slice.
func (ps *Pairs) Slice() []Pair {
	n := 0
	for _, c := range ps.Chunks() {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]Pair, 0, n)
	for _, c := range ps.Chunks() {
		out = append(out, c...)
	}
	return out
}

// Release hands ps's chunks back to the pool and empties ps. No slice
// Chunks returned may be read after it.
func (ps *Pairs) Release() {
	for _, c := range ps.chunks {
		chunkPool.Put((*[pairChunk]Pair)(c[:pairChunk]))
	}
	*ps = Pairs{}
}

// JoinMasked is Join for a caller that can say which rows still matter
// to it and needs only the pairs that touch one, stored in ps, which
// must be empty: keepLeft and keepRight mark the rows (nil: every row of
// that side). With fromLeft set ps holds, in Join's order, exactly the
// pairs (a, b) of Join's with
//
//	keepLeft[a], or b in R' = {b : keepRight[b], and some a with keepLeft[a] pairs with b}
//
// and without it the mirror image, keepRight[b] or a in L'. The columns
// are tokenised once and probed twice: the kept rows of the driving
// side against the whole other column, which finds R', then the
// driving side's other rows against R' alone — |A_k|·|B| + |A_d|·|B'|
// counter reads instead of |A|·|B|. The two outputs are merged as runs
// inside the chunks the probes filled: no pair is copied. It counts as
// one join in the metrics.
func (ps *Pairs) JoinMasked(f Func, left, right []string, eps float64, keepLeft, keepRight []bool, fromLeft bool) {
	start := time.Now()
	sc := grabScratch(f == TokenJaccard)
	defer sc.release()
	// The first probe's pairs go to ps, and found marks whom they reach
	// on the other side.
	var second Pairs
	other := len(left)
	if fromLeft {
		other = len(right)
	}
	found := resize(sc.found, other)
	clear(found)
	sc.found = found
	note := func(p Pair) {
		if fromLeft && (keepRight == nil || keepRight[p.Right]) {
			found[p.Right] = true
		} else if !fromLeft && (keepLeft == nil || keepLeft[p.Left]) {
			found[p.Left] = true
		}
		ps.Add(p)
	}
	touched := 0
	if x, ok := sc.index(f, left, right, eps); ok {
		if fromLeft {
			x.probe(keepLeft, true, nil, true, note)
			x.probe(keepLeft, false, found, true, second.Add)
		} else {
			x.probe(nil, true, keepRight, true, note)
			x.probe(found, true, keepRight, false, second.Add)
		}
		touched = x.touched
	} else {
		// Nothing to count: join unmasked and deal the pairs out as the
		// probes would have.
		var all Pairs
		touched = joinPairs(f, left, right, eps, all.Add)
		driver := func(p Pair) bool {
			if fromLeft {
				return keepLeft == nil || keepLeft[p.Left]
			}
			return keepRight == nil || keepRight[p.Right]
		}
		for _, c := range all.chunks {
			for _, p := range c {
				if driver(p) {
					note(p)
				}
			}
		}
		for _, c := range all.chunks {
			for _, p := range c {
				if !driver(p) && ((fromLeft && found[p.Right]) || (!fromLeft && found[p.Left])) {
					second.Add(p)
				}
			}
		}
		all.Release()
	}
	var n int
	ps.runs, n = mergeRuns(ps.chunks, second.chunks)
	ps.chunks = append(ps.chunks, second.chunks...)
	mJoins.Inc()
	mJoinTouched.Add(int64(touched))
	mJoinPairs.Add(int64(n))
	mJoinSeconds.Observe(time.Since(start).Seconds())
}

// mergeRuns merges two lists in ascending (Left, Right) order that
// share no pair: the result is the runs of a's and b's chunks that lie
// between two pairs of the other list, in order, n pairs in all — one
// slice header per run instead of a copy per pair (from the left the
// lists interleave by row; from the right a run is never shorter than
// in the shorter list). When b is empty a's chunks are the result as
// they stand.
func mergeRuns(a, b [][]Pair) (out [][]Pair, n int) {
	if len(b) == 0 {
		for _, c := range a {
			n += len(c)
		}
		return a, n
	}
	type cursor struct {
		chunks [][]Pair
		c, i   int // the head is chunks[c][i]
	}
	x, y := &cursor{chunks: a}, &cursor{chunks: b}
	for x.c < len(x.chunks) || y.c < len(y.chunks) {
		// x is the list whose head comes first; its run ends at y's head.
		if x.c == len(x.chunks) || (y.c < len(y.chunks) && before(y.chunks[y.c][y.i], x.chunks[x.c][x.i])) {
			x, y = y, x
		}
		rest := x.chunks[x.c][x.i:]
		k := len(rest)
		if y.c < len(y.chunks) {
			stop := y.chunks[y.c][y.i]
			k = sort.Search(len(rest), func(i int) bool { return !before(rest[i], stop) })
		}
		out, n = append(out, rest[:k]), n+k
		if x.i += k; x.i == len(x.chunks[x.c]) {
			x.c, x.i = x.c+1, 0
		}
	}
	return out, n
}

// before is Join's order.
func before(p, q Pair) bool {
	return p.Left < q.Left || (p.Left == q.Left && p.Right < q.Right)
}

func joinPairs(f Func, left, right []string, eps float64, emit func(Pair)) (touched int) {
	sc := grabScratch(f == TokenJaccard)
	defer sc.release()
	if x, ok := sc.index(f, left, right, eps); ok {
		x.probe(nil, true, nil, true, emit)
		return x.touched
	}
	if f == NoSim {
		for i := range left {
			for j := range right {
				emit(Pair{Left: i, Right: j, Sim: 0.5})
			}
		}
		return 0
	}
	// Jaccard at eps <= 0: pairs that share nothing qualify too, so
	// every pair is scored.
	for _, p := range BruteForceJoin(f, left, right, eps) {
		emit(p)
	}
	return 0
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

// index is the Jaccard threshold join (eps > 0) over 2-gram sets, or
// whitespace-token sets when words is set, by overlap counting
// (ScanCount), taken apart so that its two halves are paid for
// separately: scratch.index tokenises and sizes both columns, once, and
// probe joins a subset of the left rows with a subset of the right rows
// — an inverted index over the right subset's tokens, one counter per
// right record of the subset, and for each left record a walk along the
// postings of its tokens that leaves cnt[k] = |a ∩ b_k|. Jaccard is
// then read off the counters as c / (|a| + |b_k| - c). The work is one
// increment per shared token plus one counter read per pair of the two
// subsets, and the pairs reach emit in ascending (Left, Right) order.
// Every probe rebuilds the postings in the arrays scratch.index sized.
//
// There is deliberately no prefix or length filter in front of the
// counters. On the columns this system joins the vocabulary is a few
// hundred 2-grams and the eps = 0.3 prefix is 70 % of a record, so a
// prefix filter passed 90–93 % of all title pairs (15–74 % on short
// names) and each survivor then cost a sorted-merge of |a| + |b|
// branches — about six times the number of tokens the pairs share.
type index struct {
	left, right []string
	l, r        idSets
	// A pair is emitted when its Jaccard reaches pre and, if exact is
	// set, the exact similarity of its two strings then reaches eps.
	pre, eps float64
	exact    func(a, b string) float64

	start, fill []int32 // per token: where its postings start, and fill up to
	post        []int32 // post[start[id]:start[id+1]]: the subset's records holding id, ascending
	cnt         []int32
	rows        []int32 // rows[k]: the right row of the subset's k-th record, when a probe restricts

	touched int // pairs that shared at least one token, over all probes
}

// scratch is what a join needs only until it returns: the tokenizer,
// both columns' id sets, the index's arrays and the masked join's
// marks. scratchPool recycles it, so a warm pool leaves a join
// allocating only the pairs it emits. Nothing in it is state between
// joins: the tokenizer is reset when the scratch is taken, the columns
// are dropped when it goes back, and the pool sheds what it holds
// within two collections.
type scratch struct {
	tok   tokenizer
	x     index
	found []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grabScratch takes a scratch from the pool, its tokenizer reset to
// tokenise words or 2-grams.
func grabScratch(words bool) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.tok.reset(words)
	return sc
}

// release drops the columns sc's index refers to and returns sc to the
// pool.
func (sc *scratch) release() {
	sc.x.left, sc.x.right, sc.x.exact = nil, nil, nil
	scratchPool.Put(sc)
}

// index prepares, in sc's arrays, the join Join(f, left, right, eps)
// runs as one probe; !ok when f and eps leave nothing to count (NoSim;
// Jaccard at eps <= 0, where pairs sharing no token qualify too).
//
// EditDistance and Cosine count 2-gram overlap at a pre-threshold and
// verify the survivors with the exact function. The pre-threshold is a
// heuristic candidate filter, not a bound: 2-gram Jaccard of strings
// within edit distance d of each other degrades roughly linearly in d,
// but a pair can reach eps while sharing no 2-gram at all ("a corp" and
// "Acme": edit similarity 0.33, no common 2-gram), and such a pair is
// never a candidate.
func (sc *scratch) index(f Func, left, right []string, eps float64) (x *index, ok bool) {
	x = &sc.x
	x.left, x.right, x.pre, x.eps, x.exact, x.touched = left, right, eps, eps, nil, 0
	switch f {
	case Gram2Jaccard, TokenJaccard:
		if eps <= 0 {
			return x, false
		}
	case EditDistance:
		x.pre, x.exact = max(eps/3-0.05, 0.05), NormalizedEditSim
	case Cosine:
		x.pre, x.exact = max(eps*eps/2, 0.05), CosineSim
	default:
		return x, false
	}
	t := &sc.tok
	x.r, x.l = t.sets(x.r, right), t.sets(x.l, left)
	nTok := len(t.seen)
	x.start = resize(x.start, nTok+1)
	x.fill = resize(x.fill, nTok)
	x.post = resize(x.post, len(x.r.ids))
	x.cnt = resize(x.cnt, len(right))
	clear(x.cnt)
	return x, true
}

// selected reports whether mask picks row i: the rows it marks when
// want is set, the others when not; a nil mask marks every row.
func selected(mask []bool, i int, want bool) bool {
	return (mask == nil || mask[i]) == want
}

// probe joins the left rows (lmask, lwant) select with the right rows
// (rmask, rwant) select.
func (x *index) probe(lmask []bool, lwant bool, rmask []bool, rwant bool, emit func(Pair)) {
	if (lmask == nil && !lwant) || (rmask == nil && !rwant) {
		return
	}
	r, l := x.r, x.l
	nTok := len(x.fill)
	start, fill, post := x.start, x.fill, x.post
	// The subset's k-th record is right row rows[k]; unrestricted, row k.
	restricted := rmask != nil
	var rows []int32
	if restricted {
		rows = resize(x.rows, len(x.right))[:0]
		for j := range x.right {
			if rmask[j] == rwant {
				rows = append(rows, int32(j))
			}
		}
		x.rows = rows
	}
	n := len(x.right)
	if restricted {
		n = len(rows)
	}
	row := func(k int) int {
		if restricted {
			return int(rows[k])
		}
		return k
	}
	clear(start)
	for k := 0; k < n; k++ {
		for _, id := range r.set(row(k)) {
			start[id+1]++
		}
	}
	for id := 0; id < nTok; id++ {
		start[id+1] += start[id]
	}
	copy(fill, start[:nTok])
	for k := 0; k < n; k++ {
		for _, id := range r.set(row(k)) {
			post[fill[id]] = int32(k)
			fill[id]++
		}
	}

	if n == 0 {
		return
	}
	cnt := x.cnt[:n]
	for i := range x.left {
		if !selected(lmask, i, lwant) {
			continue
		}
		a := l.set(i)
		for _, id := range a {
			for _, k := range post[start[id]:start[id+1]] {
				cnt[k]++
			}
		}
		for k, c := range cnt {
			if c == 0 {
				continue
			}
			cnt[k] = 0
			x.touched++
			j := row(k)
			union := len(a) + r.size(j) - int(c)
			s := float64(c) / float64(union)
			if s < x.pre {
				continue
			}
			if x.exact != nil {
				if s = x.exact(x.left[i], x.right[j]); s < x.eps {
					continue
				}
			}
			emit(Pair{Left: i, Right: j, Sim: s})
		}
	}
}
