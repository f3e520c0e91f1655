package exec

import (
	"slices"
	"strconv"
	"strings"

	"cdb/internal/cql"
	"cdb/internal/graph"
	"cdb/internal/table"
)

// OrderPlan is the plan an ORDER BY runs over its statement's answer,
// and the merge order that asks it. values are the ordered column's
// projected values in row order. The plan's table holds each distinct
// value once, in lexicographic order, twice over as in ValuePlan. Its
// edges are comparisons (Lᵢ, Rⱼ), i < j: "does value i come before
// value j?", true by naturalLess, with an even 0.5 prior. The left
// value of a comparison is thus always the lexicographically smaller,
// so TaskKey keys it as asked and no path ever flips a verdict.
//
// The plan starts without edges: the merge order binds a comparison
// when a merge first asks it, so the plan holds the comparisons the sort
// asks, about n·log₂n of n values' n(n−1)/2 pairs.
func OrderPlan(ref cql.ColRef, values []string) (*Plan, *MergeOrder) {
	distinct, row := firstAppearance(values)
	m, n := &MergeOrder{row: row}, len(distinct)
	m.values = slices.Clone(distinct)
	slices.Sort(m.values)
	m.rank = make([]int, n)
	for k, v := range distinct {
		m.rank[k], _ = slices.BinarySearch(m.values, v)
	}
	m.build()

	tb := valueTable(ref, m.values)
	s := &graph.Structure{Tables: []string{ref.Table, ref.Table}, Preds: []graph.QPred{{A: 0, B: 1, Name: "ORDER BY " + ref.String()}}}
	m.p = &Plan{S: s, G: graph.MustNewGraph(s, []int{n, n}), Tables: []*table.Table{tb, tb}, compare: true,
		Bindings: []PredBinding{{Pred: cql.Predicate{Kind: cql.CrowdJoin, Left: ref, Right: ref}, RightTab: 1}}}
	return m.p, m
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

// MergeOrder is the cost.Strategy of an OrderPlan: a bottom-up merge
// sort of the distinct values in their first-appearance order, each
// comparison one crowd task. A merge can ask only once both its inputs
// are sorted, and then one comparison at a time, each waiting on the
// last; every round asks the next comparison of every merge that can
// ask, so a sort takes as many rounds as its longest chain of
// dependent comparisons.
type MergeOrder struct {
	p *Plan // the OrderPlan its comparisons are bound into
	// row maps an input row to its distinct value, numbered by first
	// appearance; rank maps a distinct value to its row in the plan's
	// table, values, which is in lexicographic order.
	row, rank []int
	values    []string
	// ready holds the merges whose inputs are sorted and that are not
	// done, in tree order; root is the whole sort (nil without values).
	ready []*merge
	root  *merge
	// open is the comparisons the sort may still ask: a+b−1 for each
	// unfinished merge of a and b values, less those it took.
	open int
}

// merge is one node of the merge tree: a leaf holds one value, sorted;
// an inner node merges a and b, of which out holds the first i and j
// values, and is done once it holds all of them. e is the comparison it
// waits on, -1 before it is bound.
type merge struct {
	a, b, up *merge
	at, n    int // position in tree order, inputs first; values merged
	out      []int
	i, j, e  int
	done     bool
}

// build lays out a bottom-up merge sort's tree: at each level,
// neighbouring runs merge pairwise and an odd last run waits for the
// next level. The merges of two leaves are ready at once.
func (m *MergeOrder) build() {
	level := make([]*merge, len(m.rank))
	for k := range level {
		level[k] = &merge{out: []int{k}, n: 1, done: true}
	}
	at := 0
	for len(level) > 1 {
		next := level[:0:0]
		for k := 0; k+1 < len(level); k += 2 {
			a, b := level[k], level[k+1]
			mg := &merge{a: a, b: b, at: at, n: a.n + b.n, e: -1}
			a.up, b.up = mg, mg
			at++
			m.open += mg.n - 1
			if a.done && b.done {
				m.ready = append(m.ready, mg)
			}
			next = append(next, mg)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	if len(level) == 1 {
		m.root = level[0]
	}
}

// advance takes every comparison g has answered and returns the merges
// left waiting on one, in tree order, as NextRound asks them. A merge
// that finishes readies its parent in the same pass.
func (m *MergeOrder) advance(g *graph.Graph) []*merge {
	var wait []*merge
	for k := 0; k < len(m.ready); k++ {
		mg := m.ready[k]
		if m.take(g, mg) {
			wait = append(wait, mg)
		} else if up := mg.up; up != nil && up.a.done && up.b.done {
			m.ready = append(m.ready, up)
		}
	}
	slices.SortFunc(wait, func(x, y *merge) int { return x.at - y.at })
	m.ready = wait
	return wait
}

// take moves mg's answered comparisons into its output — x comes first
// if the edge is Blue and x is its left value, or Red and x its right —
// and reports whether mg waits on a comparison, false once it is done.
// A merge that runs out of one input appends the other.
func (m *MergeOrder) take(g *graph.Graph, mg *merge) bool {
	for {
		if mg.i == len(mg.a.out) || mg.j == len(mg.b.out) {
			mg.out = append(append(mg.out, mg.a.out[mg.i:]...), mg.b.out[mg.j:]...)
			mg.done = true
			m.open -= mg.n - 1 - mg.i - mg.j
			return false
		}
		if mg.e < 0 || g.Edge(mg.e).Color == graph.Unknown {
			return true
		}
		x, y := mg.a.out[mg.i], mg.b.out[mg.j]
		if (g.Edge(mg.e).Color == graph.Blue) == (m.rank[x] < m.rank[y]) {
			mg.out, mg.i = append(mg.out, x), mg.i+1
		} else {
			mg.out, mg.j = append(mg.out, y), mg.j+1
		}
		mg.e = -1
		m.open--
	}
}

// bind adds the comparison of distinct values x and y to the plan, the
// lexicographically smaller on the left, and returns its edge.
func (m *MergeOrder) bind(g *graph.Graph, x, y int) int {
	lo, hi := min(m.rank[x], m.rank[y]), max(m.rank[x], m.rank[y])
	m.p.Truth = append(m.p.Truth, naturalLess(m.values[lo], m.values[hi]))
	return g.AddEdge(0, lo, hi, 0.5)
}

// Name implements cost.Strategy.
func (m *MergeOrder) Name() string { return "MergeOrder" }

// NextRound implements cost.Strategy: every merge whose inputs are
// sorted takes the comparisons g has answered and asks its next one,
// binding it on first ask.
func (m *MergeOrder) NextRound(g *graph.Graph) []int {
	var batch []int
	for _, mg := range m.advance(g) {
		if mg.e < 0 {
			mg.e = m.bind(g, mg.a.out[mg.i], mg.b.out[mg.j])
		}
		batch = append(batch, mg.e)
	}
	return batch
}

// Flush implements cost.Strategy: a merge cannot ask ahead of its
// answers, so the last permitted round is an ordinary one.
func (m *MergeOrder) Flush(g *graph.Graph) []int { return m.NextRound(g) }

// Open is the comparisons the sort may still ask once it takes every
// answer g holds. Run reports it as the open work in place of g's
// uncolored edges, which are only the comparisons being asked.
func (m *MergeOrder) Open(g *graph.Graph) int {
	m.advance(g)
	return m.open
}

// Perm returns the input rows in sorted order, as indices into the
// values OrderPlan was given, after taking every comparison g has
// answered. A merge left unfinished — its run cut short — keeps its
// inputs' order after what it merged, and rows of equal value keep
// their input order.
func (m *MergeOrder) Perm(g *graph.Graph) []int {
	m.advance(g)
	rows := make([][]int, len(m.rank))
	for i, k := range m.row {
		rows[k] = append(rows[k], i)
	}
	var perm []int
	if m.root != nil {
		for _, k := range m.root.sorted() {
			perm = append(perm, rows[k]...)
		}
	}
	return perm
}

// sorted is mg's values in the order the answers so far give them.
func (mg *merge) sorted() []int {
	if mg.done {
		return mg.out
	}
	return append(append(slices.Clone(mg.out), mg.a.sorted()[mg.i:]...), mg.b.sorted()[mg.j:]...)
}
