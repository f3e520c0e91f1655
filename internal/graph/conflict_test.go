package graph

import (
	"testing"

	"cdb/internal/stats"
)

var shapes = []string{"chain", "star", "tree", "caterpillar"}

// shapedStructure builds a chain, star, random tree or caterpillar over
// n tables. The caterpillar is a five-table spine with the remaining
// tables hanging off its interior: the smallest shape where a path
// between two predicates passes through a tuple that must also cover a
// subtree off that path.
func shapedStructure(shape string, n int, r *stats.RNG) *Structure {
	if shape == "caterpillar" && n < 6 {
		n = 6
	}
	s := &Structure{}
	for i := 0; i < n; i++ {
		s.Tables = append(s.Tables, string(rune('A'+i)))
	}
	for i := 1; i < n; i++ {
		parent := i - 1 // chain
		switch {
		case shape == "star":
			parent = 0
		case shape == "tree":
			parent = r.Intn(i)
		case shape == "caterpillar" && i >= 5:
			parent = 1 + r.Intn(3)
		}
		// Mix the orientations so both the U and the V side of a
		// predicate end up as near endpoints.
		if r.Bool(0.5) {
			s.Preds = append(s.Preds, QPred{A: parent, B: i})
		} else {
			s.Preds = append(s.Preds, QPred{A: i, B: parent})
		}
	}
	return s
}

// denseGraph instantiates s with 2–4 tuples per table and each
// possible edge present with a per-graph probability between 0.4 and
// 0.8 (sparse graphs leave tuples that cannot cover a subtree), all
// uncolored.
func denseGraph(s *Structure, r *stats.RNG) *Graph {
	counts := make([]int, len(s.Tables))
	for i := range counts {
		counts[i] = 2 + r.Intn(3)
	}
	g := MustNewGraph(s, counts)
	density := 0.4 + 0.4*r.Float64()
	for p, pd := range s.Preds {
		for a := 0; a < counts[pd.A]; a++ {
			for b := 0; b < counts[pd.B]; b++ {
				if r.Bool(density) {
					g.AddEdge(p, a, b, 0.5)
				}
			}
		}
	}
	return g
}

// checkAllPairs compares SameCandidate with the backtracking search on
// every ordered edge pair.
func checkAllPairs(t *testing.T, g *Graph, ctx string) {
	t.Helper()
	for e1 := 0; e1 < g.NumEdges(); e1++ {
		for e2 := 0; e2 < g.NumEdges(); e2++ {
			if e1 == e2 {
				continue
			}
			want := g.existsCandidateWithPins([]int{e1, e2})
			if got := g.SameCandidate(e1, e2); got != want {
				t.Fatalf("%s: SameCandidate(%d,%d) = %v, search says %v (edges %+v %+v)",
					ctx, e1, e2, got, want, g.edges[e1], g.edges[e2])
			}
		}
	}
}

// TestSameCandidateMatchesBacktracking colors random chain, star, tree
// and caterpillar graphs (and one cyclic one) edge by edge and checks
// SameCandidate's two search-free rules against the search after every
// transition; the pairs cover valid, invalid, blue and red edges.
func TestSameCandidateMatchesBacktracking(t *testing.T) {
	r := stats.NewRNG(20170514)
	for trial := 0; trial < 120; trial++ {
		shape := shapes[trial%len(shapes)]
		s := shapedStructure(shape, 3+r.Intn(4), r)
		g := denseGraph(s, r)
		if !g.treeShaped {
			t.Fatalf("%s structure classified cyclic", shape)
		}
		checkAllPairs(t, g, shape+" initial")
		steps := 2 * g.NumEdges()
		if steps > 24 {
			steps = 24 // all-pairs search per step: keep the trial bounded
		}
		for step := 0; step < steps; step++ {
			e := r.Intn(g.NumEdges())
			switch r.Intn(5) {
			case 0, 1:
				g.SetColor(e, Red)
			case 2, 3:
				g.SetColor(e, Blue)
			default:
				g.SetColor(e, Unknown)
			}
			checkAllPairs(t, g, shape+" after SetColor")
		}
	}

	// Cyclic structures keep the search; the dispatch must still agree.
	tri := &Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}},
	}
	g := denseGraph(tri, r)
	if g.treeShaped {
		t.Fatal("triangle classified tree-shaped")
	}
	for step := 0; step < 6; step++ {
		checkAllPairs(t, g, "cyclic")
		g.SetColor(r.Intn(g.NumEdges()), Red)
	}
}

// TestConflictIndexTreeNoAllocs pins the point of the cover-fact test:
// on a tree-shaped graph, once the index has been sized, Reset, Add and
// Conflicts allocate nothing, whether the predicates are adjacent or a
// walk apart.
func TestConflictIndexTreeNoAllocs(t *testing.T) {
	r := stats.NewRNG(8)
	g := denseGraph(shapedStructure("chain", 5, r), r)
	g.SetColor(1, Red)
	var valid []int
	for e := 0; e < g.NumEdges(); e++ {
		if g.IsValid(e) {
			valid = append(valid, e)
		}
	}
	var ci ConflictIndex
	sink := 0
	count := func() {
		for _, x := range valid {
			ci.Reset(g)
			ci.Add(x)
			for _, e := range valid {
				if e != x && ci.Conflicts(e) {
					sink++
				}
			}
		}
	}
	count() // sizes the counts and the walk scratch
	if sink == 0 || ci.Steps <= ci.Tests {
		t.Fatalf("%d conflicts, %d steps for %d tests: the graph does not exercise the walk", sink, ci.Steps, ci.Tests)
	}
	if allocs := testing.AllocsPerRun(5, count); allocs != 0 {
		t.Fatalf("tree-shaped ConflictIndex allocates: %v allocs per all-pairs sweep", allocs)
	}
}

// TestConflictIndexMatchesSameCandidate grows random sets of valid
// edges, then tries every valid pair as a one-member set, and checks
// every membership query against pairwise SameCandidate, on tree-shaped
// and cyclic graphs, reusing one index across graphs the way the
// scheduler's pool does.
func TestConflictIndexMatchesSameCandidate(t *testing.T) {
	r := stats.NewRNG(77)
	var ci ConflictIndex
	tests, steps := 0, 0
	for trial := 0; trial < 400; trial++ {
		var g *Graph
		if trial%6 == 5 {
			g = denseGraph(&Structure{
				Tables: []string{"A", "B", "C"},
				Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}},
			}, r)
		} else {
			g = denseGraph(shapedStructure(shapes[trial%len(shapes)], 3+r.Intn(4), r), r)
		}
		for i := 0; i < g.NumEdges()/4; i++ {
			g.SetColor(r.Intn(g.NumEdges()), []Color{Red, Blue}[r.Intn(2)])
		}
		ci.Reset(g)
		var set []int
		for _, e := range r.Perm(g.NumEdges()) {
			if !g.IsValid(e) {
				continue
			}
			want := false
			for _, x := range set {
				if g.SameCandidate(x, e) {
					want = true
					break
				}
			}
			if got := ci.Conflicts(e); got != want {
				t.Fatalf("trial %d: Conflicts(%d) = %v with set %v, pairwise says %v", trial, e, got, set, want)
			}
			if !want || r.Bool(0.3) { // conflicting members too: counts above one
				ci.Add(e)
				set = append(set, e)
			}
		}
		tests += ci.Tests
		steps += ci.Steps
		// Singleton sets: every valid pair on its own, so no nearer member
		// can answer for a far one.
		for x := 0; x < g.NumEdges(); x++ {
			if !g.IsValid(x) {
				continue
			}
			ci.Reset(g)
			ci.Add(x)
			for e := 0; e < g.NumEdges(); e++ {
				if e == x || !g.IsValid(e) {
					continue
				}
				if got, want := ci.Conflicts(e), g.SameCandidate(x, e); got != want {
					t.Fatalf("trial %d: Conflicts(%d) = %v with set [%d], SameCandidate says %v", trial, e, got, x, want)
				}
			}
		}
	}
	if tests == 0 || steps < tests {
		t.Fatalf("counters not kept: %d tests, %d walk steps", tests, steps)
	}
	ci.Reset(nil)
	for key, c := range ci.count {
		if c != 0 {
			t.Fatalf("Reset left count[%d] = %d", key, c)
		}
	}
}

// TestConflictOffPathCover is the case the path walk's cover check
// exists for: a and b are both valid and joined by non-red edges, but
// the only tuple that links them cannot cover a subtree hanging off
// the path, so no candidate holds both.
func TestConflictOffPathCover(t *testing.T) {
	s := &Structure{
		Tables: []string{"P", "X", "W", "Y", "Q", "L"},
		Preds: []QPred{
			{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}, {A: 3, B: 4}, // spine P-X-W-Y-Q
			{A: 2, B: 5}, // leg W-L
		},
	}
	g := MustNewGraph(s, []int{1, 2, 3, 2, 1, 1})
	a := g.AddEdge(0, 0, 0, 0.5) // p–x0
	g.AddEdge(0, 0, 1, 0.5)      // p–x1
	g.AddEdge(1, 0, 0, 0.5)      // x0–w0: the only link, and w0 has no leg
	g.AddEdge(1, 0, 1, 0.5)      // x0–w1
	g.AddEdge(1, 1, 2, 0.5)      // x1–w2
	g.AddEdge(2, 0, 0, 0.5)      // w0–y0
	g.AddEdge(2, 1, 1, 0.5)      // w1–y1
	g.AddEdge(2, 2, 0, 0.5)      // w2–y0
	b := g.AddEdge(3, 0, 0, 0.5) // y0–q
	g.AddEdge(3, 1, 0, 0.5)      // y1–q
	g.AddEdge(4, 1, 0, 0.5)      // w1–l
	leg := g.AddEdge(4, 2, 0, 0.5)
	if !g.IsValid(a) || !g.IsValid(b) {
		t.Fatal("setup: a and b must both be valid")
	}
	var ci ConflictIndex
	check := func(want bool) {
		t.Helper()
		if search := g.existsCandidateWithPins([]int{a, b}); search != want {
			t.Fatalf("setup: search says %v, want %v", search, want)
		}
		if g.SameCandidate(a, b) != want || g.SameCandidate(b, a) != want {
			t.Fatalf("SameCandidate(a,b), (b,a) = %v, %v, want %v", g.SameCandidate(a, b), g.SameCandidate(b, a), want)
		}
		for _, pair := range [2][2]int{{a, b}, {b, a}} {
			ci.Reset(g)
			ci.Add(pair[0])
			if got := ci.Conflicts(pair[1]); got != want {
				t.Fatalf("ConflictIndex{%d}.Conflicts(%d) = %v, want %v", pair[0], pair[1], got, want)
			}
		}
	}
	check(false)
	g.AddEdge(4, 0, 0, 0.5) // w0–l: the link now covers its leg
	check(true)
	g.SetColor(leg, Red) // unrelated leg: nothing changes for a and b
	check(true)
}

// BenchmarkConflictIndex times the conflict test on a connected
// three-predicate chain (tuple degree 3): Reset, Add the first
// predicate's edges at every sixth tuple (so hits and misses both
// occur), then test edges of the next predicates — the second (adjacent:
// one count lookup) and the third (a one-hop walk) in turn.
func BenchmarkConflictIndex(b *testing.B) {
	const n, degree = 300, 3
	s := &Structure{
		Tables: []string{"A", "B", "C", "D"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}},
	}
	g := MustNewGraph(s, []int{n, n, n, n})
	for p := range s.Preds {
		for a := 0; a < n; a++ {
			for k := 0; k < degree; k++ {
				g.AddEdge(p, a, (a+k)%n, 0.5)
			}
		}
	}
	perPred := n * degree
	var ci ConflictIndex
	ci.Reset(g)
	for e := 0; e < perPred; e += 6 * degree {
		for k := 0; k < degree; k++ {
			ci.Add(e + k)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if ci.Conflicts(perPred*(1+i%2) + (i/2)%perPred) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit-ratio")
}
