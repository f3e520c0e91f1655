package exec

import (
	"cdb/internal/graph"
)

// liveness is a LiveOnly bind's view of which tuples can still be in an
// answer. A tuple is possibly live when, on every predicate incident to
// its table, it has a candidate pair whose other end is possibly live —
// the greatest fixpoint of that rule over the candidate lists. On a
// tree-shaped structure these are exactly the tuples with a valid edge
// at birth; on a cyclic one, a superset. A pair both of whose tuples
// are outside it is never valid (validity needs an embedding through
// both), so never asked, never in an answer, and in no (tuple,
// predicate) bundle of a tuple that has a valid edge — which are the
// only bundles Eq. 1 is evaluated on. Every bundle of a possibly-live
// tuple is kept whole, so dropping the dead×dead pairs renumbers the
// edges of a run and changes nothing else about it.
//
// The fixpoint is reached by semi-join sweeps: a sweep of predicate p
// kills the live rows on either side that have no pair to a live row on
// the other, after which p is consistent, and the other predicates of a
// table that lost rows are due again. Sweeping the due predicates in
// statement order, then in reverse, until none is due takes each list of
// a chain written in join order at most twice (Yannakakis' reducer) and
// any structure, cyclic ones included, to the same fixpoint. A deferred
// CROWDJOIN constrains nothing until it has run, so every mask on the
// way is a superset of the final one — what a masked join needs.
type liveness struct {
	s     *graph.Structure
	cands []candidates
	live  [][]bool // per table, carved from one array
	nLive []int
	has   []bool // a sweep's scratch: the rows with live support, as long as the largest table
	dirty []bool // per predicate: due a sweep
	// empty: some table has no possibly-live row left. The structure is
	// connected, so nobody has, whatever the joins still to run say.
	empty bool
}

func newLiveness(s *graph.Structure, counts []int, cands []candidates) *liveness {
	lv := &liveness{s: s, cands: cands, live: make([][]bool, len(counts)), nLive: append([]int(nil), counts...), dirty: make([]bool, len(cands))}
	total, largest := 0, 0
	for _, n := range counts {
		total += n
		largest = max(largest, n)
	}
	// One array: every table's mask, then the scratch for both sides of a sweep.
	all := make([]bool, total+2*largest)
	for i := range all[:total] {
		all[i] = true
	}
	off := 0
	for t, n := range counts {
		lv.live[t] = all[off : off+n : off+n]
		off += n
		lv.empty = lv.empty || n == 0
	}
	lv.has = all[total:]
	for p := range lv.dirty {
		lv.dirty[p] = true
	}
	return lv
}

// mask returns table t's possibly-live rows for a masked join, nil
// while that is still all of them.
func (lv *liveness) mask(t int) []bool {
	if lv.nLive[t] == len(lv.live[t]) {
		return nil
	}
	return lv.live[t]
}

// settle sweeps until no predicate that has run is due.
func (lv *liveness) settle() {
	n := len(lv.cands)
	for again := true; again && !lv.empty; {
		again = false
		for k := 0; k < 2*n; k++ {
			p := k
			if k >= n {
				p = 2*n - 1 - k
			}
			if lv.dirty[p] && !lv.cands[p].deferred && !lv.empty {
				lv.sweep(p)
				again = true
			}
		}
	}
	if lv.empty {
		for t := range lv.live {
			clear(lv.live[t])
		}
	}
}

// sweep makes predicate p consistent: a row whose pairs all lead to
// dead rows dies. (A row that dies here supported nobody who stays: its
// partners were all dead already.)
func (lv *liveness) sweep(p int) {
	lv.dirty[p] = false
	c, qp := &lv.cands[p], lv.s.Preds[p]
	la, lb := lv.live[qp.A], lv.live[qp.B]
	ha, hb := lv.has[:len(la)], lv.has[len(la):len(la)+len(lb)]
	clear(ha)
	clear(hb)
	for _, chunk := range c.chunks {
		for _, pr := range chunk {
			if la[pr.Left] && lb[pr.Right] && !c.null(pr) {
				ha[pr.Left], hb[pr.Right] = true, true
			}
		}
	}
	lv.kill(qp.A, ha, p)
	lv.kill(qp.B, hb, p)
}

// kill drops table t's live rows that a sweep of predicate p left
// without support, and makes t's other predicates due if there were any.
func (lv *liveness) kill(t int, has []bool, p int) {
	live, died := lv.live[t], 0
	for i, ok := range has {
		if live[i] && !ok {
			live[i] = false
			died++
		}
	}
	if died == 0 {
		return
	}
	lv.nLive[t] -= died
	lv.empty = lv.empty || lv.nLive[t] == 0
	for q, qp := range lv.s.Preds {
		if q != p && (qp.A == t || qp.B == t) {
			lv.dirty[q] = true
		}
	}
}

// nextJoin picks the deferred CROWDJOIN to run next and the side to
// drive it from: the side, over all of them, with the smallest share of
// possibly-live rows (the first such in statement order, left before
// right). pred is -1 when none is deferred.
func (lv *liveness) nextJoin() (pred int, fromLeft bool) {
	pred, best := -1, -1
	for p := range lv.cands {
		if !lv.cands[p].deferred {
			continue
		}
		for _, t := range [2]int{lv.s.Preds[p].A, lv.s.Preds[p].B} {
			// nLive[t]/len[t] < nLive[best]/len[best], in integers.
			if best < 0 || lv.nLive[t]*len(lv.live[best]) < lv.nLive[best]*len(lv.live[t]) {
				pred, best, fromLeft = p, t, t == lv.s.Preds[p].A
			}
		}
	}
	return pred, fromLeft
}
