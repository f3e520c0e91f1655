package exec

import (
	"slices"
	"strconv"
	"strings"

	"cdb/internal/cql"
	"cdb/internal/graph"
	"cdb/internal/stats"
	"cdb/internal/table"
)

// OrderPlan is the plan an ORDER BY runs over its statement's answer,
// and the pivot order that asks it. values are the ordered column's
// projected values in row order. The plan's table holds each distinct
// value once, in lexicographic order, twice over as in ValuePlan. Its
// edges are comparisons (Lᵢ, Rⱼ), i < j: "does value i come before
// value j?", true by naturalLess, with an even 0.5 prior. The left
// value of a comparison is thus always the lexicographically smaller,
// so TaskKey keys it as asked and no path ever flips a verdict.
//
// The plan starts without edges: the pivot order binds a comparison
// when a part first asks it, so the plan holds the comparisons the sort
// asks, about 2n·ln n of n values' n(n−1)/2 pairs.
func OrderPlan(ref cql.ColRef, values []string) (*Plan, *PivotOrder) {
	distinct, row := firstAppearance(values)
	n := len(distinct)
	o := &PivotOrder{row: row, seq: make([]int, n), edge: make([]int, n), key: make([]uint64, n), rank: make([]int, n)}
	o.values = slices.Clone(distinct)
	slices.Sort(o.values)
	for k, v := range distinct {
		o.seq[k] = k
		o.rank[k], _ = slices.BinarySearch(o.values, v)
		// FNV-1a alone barely mixes a value's last byte into its high
		// bits, so "0"…"1999" would pick lopsided pivots; the SplitMix64
		// finalizer behind HashRNG spreads them.
		o.key[k] = stats.HashRNG(0, stats.HashString(v)).Uint64()
	}
	o.split(0, n)

	tb := valueTable(ref, o.values)
	s := &graph.Structure{Tables: []string{ref.Table, ref.Table}, Preds: []graph.QPred{{A: 0, B: 1, Name: "ORDER BY " + ref.String()}}}
	o.p = &Plan{S: s, G: graph.MustNewGraph(s, []int{n, n}), Tables: []*table.Table{tb, tb}, compare: true,
		Bindings: []PredBinding{{Pred: cql.Predicate{Kind: cql.CrowdJoin, Left: ref, Right: ref}, RightTab: 1}}}
	return o.p, o
}

// naturalLess is the ground truth of a comparison, the order the
// simulated workers err around: numeric when both values parse as
// numbers, otherwise case-insensitive lexicographic.
func naturalLess(a, b string) bool {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA == nil && errB == nil {
		return fa < fb
	}
	return strings.ToLower(a) < strings.ToLower(b)
}

// PivotOrder is the cost.Strategy of an OrderPlan: a quicksort of the
// distinct values whose partitions all run at once, each comparison
// one crowd task. Every round, each unsorted part asks every member it
// has no answer for against its pivot; no answer makes another
// unnecessary, so all of them are asked together (§5.2). A part with
// every answer splits stably into the members before its pivot, the
// pivot, and the members after it, so a sort takes about as many
// rounds as its recursion is deep, O(log n).
type PivotOrder struct {
	p *Plan // the OrderPlan its comparisons are bound into
	// row maps an input row to its distinct value, numbered by first
	// appearance; rank maps a distinct value to its row in the plan's
	// table, values, which is in lexicographic order; key is a distinct
	// value's hash, which picks pivots.
	row, rank []int
	values    []string
	key       []uint64
	// seq holds the distinct values, first-appearance order within each
	// part; edge[i] is seq[i]'s comparison with its part's pivot, -1
	// before it is bound.
	seq, edge []int
	parts     []part
	// open is the comparisons the current parts ask that g has not
	// answered, as of the last advance.
	open int
}

// part is an unsorted run seq[lo:hi] of at least two values, and the
// distinct value its members are compared with.
type part struct{ lo, hi, pivot int }

// split adds seq[lo:hi] as a part if it holds two values or more, and
// its comparisons, none answered yet, to open. Its pivot is a pure
// function of its values — the least key, ties broken by rank — so a
// re-run asks the same comparisons.
func (o *PivotOrder) split(lo, hi int) {
	if hi-lo < 2 {
		return
	}
	pv := o.seq[lo]
	for _, k := range o.seq[lo+1 : hi] {
		if o.key[k] < o.key[pv] || o.key[k] == o.key[pv] && o.rank[k] < o.rank[pv] {
			pv = k
		}
	}
	for i := lo; i < hi; i++ {
		o.edge[i] = -1
	}
	o.parts, o.open = append(o.parts, part{lo, hi, pv}), o.open+hi-lo-1
}

// waiting is the comparisons pt asks that g has not answered.
func (o *PivotOrder) waiting(g *graph.Graph, pt part) int {
	n := 0
	for i := pt.lo; i < pt.hi; i++ {
		if o.seq[i] != pt.pivot && (o.edge[i] < 0 || g.Edge(o.edge[i]).Color == graph.Unknown) {
			n++
		}
	}
	return n
}

// advance splits every part g has answered in full — x comes before
// the pivot if its edge is Blue and x is the left value, or Red and x
// the right — keeping each side in its order, and recounts open.
func (o *PivotOrder) advance(g *graph.Graph) {
	parts := o.parts
	o.parts, o.open = nil, 0
	var after []int
	for _, pt := range parts {
		if w := o.waiting(g, pt); w > 0 {
			o.parts, o.open = append(o.parts, pt), o.open+w
			continue
		}
		at := pt.lo
		after = after[:0]
		for i := pt.lo; i < pt.hi; i++ {
			if x := o.seq[i]; x == pt.pivot {
				continue
			} else if (g.Edge(o.edge[i]).Color == graph.Blue) == (o.rank[x] < o.rank[pt.pivot]) {
				o.seq[at], at = x, at+1
			} else {
				after = append(after, x)
			}
		}
		o.seq[at] = pt.pivot
		copy(o.seq[at+1:pt.hi], after)
		o.split(pt.lo, at)
		o.split(at+1, pt.hi)
	}
}

// bind adds the comparison of distinct values x and y to the plan, the
// lexicographically smaller on the left, and returns its edge.
func (o *PivotOrder) bind(g *graph.Graph, x, y int) int {
	lo, hi := min(o.rank[x], o.rank[y]), max(o.rank[x], o.rank[y])
	o.p.Truth = append(o.p.Truth, naturalLess(o.values[lo], o.values[hi]))
	return g.AddEdge(0, lo, hi, 0.5)
}

// Name implements cost.Strategy.
func (o *PivotOrder) Name() string { return "PivotOrder" }

// NextRound implements cost.Strategy: every part g has answered in
// full splits, and every part asks each comparison g has not answered,
// binding it on first ask, parts and members in seq order.
func (o *PivotOrder) NextRound(g *graph.Graph) []int {
	o.advance(g)
	var batch []int
	for _, pt := range o.parts {
		for i := pt.lo; i < pt.hi; i++ {
			if o.seq[i] == pt.pivot {
				continue
			}
			if o.edge[i] < 0 {
				o.edge[i] = o.bind(g, o.seq[i], pt.pivot)
			}
			if g.Edge(o.edge[i]).Color == graph.Unknown {
				batch = append(batch, o.edge[i])
			}
		}
	}
	return batch
}

// Flush implements cost.Strategy: a part cannot split ahead of its
// answers, so the last permitted round is an ordinary one.
func (o *PivotOrder) Flush(g *graph.Graph) []int { return o.NextRound(g) }

// Open is the comparisons the current parts ask once every answer g
// holds is taken. Run reports it as the open work in place of g's
// uncolored edges, which are only the comparisons being asked.
func (o *PivotOrder) Open(g *graph.Graph) int {
	o.advance(g)
	return o.open
}

// Perm returns the input rows in sorted order, as indices into the
// values OrderPlan was given, after taking every comparison g has
// answered. A part left unsplit — its run cut short — keeps its values
// in input order, and rows of equal value keep their input order.
func (o *PivotOrder) Perm(g *graph.Graph) []int {
	o.advance(g)
	rows := make([][]int, len(o.seq))
	for i, k := range o.row {
		rows[k] = append(rows[k], i)
	}
	perm := make([]int, 0, len(o.row))
	for _, k := range o.seq {
		perm = append(perm, rows[k]...)
	}
	return perm
}
