package graph

import (
	"slices"
	"testing"

	"cdb/internal/stats"
)

// randomClosureGraph builds a random chain, star, or tree structure
// with random tuple counts and edge density — the space the overlay
// must agree with the brute-force transitive closure on.
func randomClosureGraph(r *stats.RNG) *Graph {
	var s *Structure
	switch r.Intn(3) {
	case 0: // chain A-B-C-D
		s = &Structure{
			Tables: []string{"A", "B", "C", "D"},
			Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}},
		}
	case 1: // star centred on A
		s = &Structure{
			Tables: []string{"A", "B", "C", "D"},
			Preds:  []QPred{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}},
		}
	default: // tree: B is an internal node
		s = &Structure{
			Tables: []string{"A", "B", "C", "D"},
			Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 1, B: 3}},
		}
	}
	counts := make([]int, len(s.Tables))
	for i := range counts {
		counts[i] = 1 + r.Intn(4)
	}
	g := MustNewGraph(s, counts)
	for p, pd := range s.Preds {
		for a := 0; a < counts[pd.A]; a++ {
			for b := 0; b < counts[pd.B]; b++ {
				if r.Bool(0.8) {
					g.AddEdge(p, a, b, 0.1+0.8*r.Float64())
				}
			}
		}
	}
	return g
}

// bluePartition computes, by brute force, each vertex's connected
// component under predicate pred's Blue edges.
func bluePartition(g *Graph, pred int) []int {
	parent := make([]int, g.NumVertices())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(id)
		if e.Pred != pred || e.Color != Blue {
			continue
		}
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
		}
	}
	comp := make([]int, g.NumVertices())
	for v := range comp {
		comp[v] = find(v)
	}
	return comp
}

// bruteEntails is the reference semantics: an uncolored edge is
// entailed Blue when its endpoints share a Blue component of its
// predicate, entailed Red when any Red edge of the predicate links the
// two components (A=B ∧ B≠C ⟹ A≠C).
func bruteEntails(g *Graph, comps map[int][]int, id int) (Color, bool) {
	e := g.Edge(id)
	if e.Color != Unknown {
		return Unknown, false
	}
	comp := comps[e.Pred]
	if comp[e.U] == comp[e.V] {
		return Blue, true
	}
	for f := 0; f < g.NumEdges(); f++ {
		fe := g.Edge(f)
		if fe.Pred != e.Pred || fe.Color != Red {
			continue
		}
		cu, cv := comp[fe.U], comp[fe.V]
		if (cu == comp[e.U] && cv == comp[e.V]) || (cu == comp[e.V] && cv == comp[e.U]) {
			return Red, true
		}
	}
	return Unknown, false
}

func checkClosure(t *testing.T, trial, step int, g *Graph, c *Closure) {
	t.Helper()
	comps := make(map[int][]int, len(g.S.Preds))
	for p := range g.S.Preds {
		comps[p] = bluePartition(g, p)
	}
	for id := 0; id < g.NumEdges(); id++ {
		wantCol, wantOK := bruteEntails(g, comps, id)
		col, ok := c.Entails(id)
		if ok != wantOK || (ok && col != wantCol) {
			t.Fatalf("trial %d step %d edge %d: Entails = (%v, %v), brute force = (%v, %v)",
				trial, step, id, col, ok, wantCol, wantOK)
		}
	}
	for p := range g.S.Preds {
		comp := comps[p]
		sizes := map[int]int{}
		for _, r := range comp {
			sizes[r]++
		}
		members := clusterMembers(g, c, p)
		for v := 0; v < g.NumVertices(); v++ {
			if got, want := members[v], sizes[comp[v]]; got != want {
				t.Fatalf("trial %d step %d: cluster of (%d, %d) has %d members, brute force %d",
					trial, step, p, v, got, want)
			}
		}
	}
}

// clusterMembers counts, for every vertex, the vertices that share its
// ClusterRoot under pred.
func clusterMembers(g *Graph, c *Closure, pred int) []int {
	roots := make([]int, g.NumVertices())
	count := map[int]int{}
	for v := range roots {
		roots[v] = c.ClusterRoot(pred, v)
		count[roots[v]]++
	}
	members := make([]int, len(roots))
	for v, r := range roots {
		members[v] = count[r]
	}
	return members
}

// TestClosureMatchesBruteForce colors random shaped graphs step by
// step and requires the incrementally-updated overlay to agree with a
// from-scratch transitive closure after every answer.
func TestClosureMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		g := randomClosureGraph(r)
		c := NewClosure(g)
		c.Update()
		checkClosure(t, trial, -1, g, c)
		var open []int
		for id := 0; id < g.NumEdges(); id++ {
			open = append(open, id)
		}
		step := 0
		for len(open) > 0 {
			i := r.Intn(len(open))
			id := open[i]
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
			if g.Edge(id).Color != Unknown {
				continue
			}
			col := Red
			if r.Bool(0.6) {
				col = Blue
			}
			g.SetColor(id, col)
			c.Update()
			checkClosure(t, trial, step, g, c)
			step++
		}
	}
}

// TestClosureReplayIdentical requires that an overlay updated after
// every answer and one built fresh from the same journal entail the
// same labels and form clusters of the same members — the determinism
// property GROUP BY's grouping relies on. Mid-run recolorings force
// the rebuild path on the live overlay, which must change nothing.
func TestClosureReplayIdentical(t *testing.T) {
	r := stats.NewRNG(7)
	for trial := 0; trial < 100; trial++ {
		g := randomClosureGraph(r)
		live := NewClosure(g)
		live.Update()
		for step := 0; step < g.NumEdges(); step++ {
			id := r.Intn(g.NumEdges())
			col := Red
			if r.Bool(0.6) {
				col = Blue
			}
			g.SetColor(id, col) // may recolor: exercises the rebuild path
			live.Update()
		}
		replay := NewClosure(g)
		replay.Update()
		for id := 0; id < g.NumEdges(); id++ {
			lc, lok := live.Entails(id)
			rc, rok := replay.Entails(id)
			if lc != rc || lok != rok {
				t.Fatalf("trial %d edge %d: live (%v, %v) != replay (%v, %v)",
					trial, id, lc, lok, rc, rok)
			}
		}
		for p := range g.S.Preds {
			if !slices.Equal(clusterMembers(g, live, p), clusterMembers(g, replay, p)) {
				t.Fatalf("trial %d: cluster sizes diverge under pred %d", trial, p)
			}
		}
	}
}

// TestClosureNegativeRule pins the asymmetric inference rule directly:
// A=B ∧ B≠C entails A≠C, while A≠B ∧ B≠C entails nothing about A–C.
func TestClosureNegativeRule(t *testing.T) {
	build := func() (*Graph, [4]int) {
		s := &Structure{Tables: []string{"L", "R"}, Preds: []QPred{{A: 0, B: 1}}}
		g := MustNewGraph(s, []int{2, 2}) // a0,a1 | b0,b1
		e00 := g.AddEdge(0, 0, 0, 0.5)    // a0–b0
		e01 := g.AddEdge(0, 0, 1, 0.5)    // a0–b1
		e10 := g.AddEdge(0, 1, 0, 0.5)    // a1–b0
		e11 := g.AddEdge(0, 1, 1, 0.5)    // a1–b1
		return g, [4]int{e00, e01, e10, e11}
	}

	// Positive rule: a1=b0 ∧ b0=a0 ∧ a0=b1 ⟹ a1=b1.
	g, e := build()
	g.SetColor(e[0], Blue) // a0 = b0
	g.SetColor(e[1], Blue) // a0 = b1 → {a0, b0, b1}
	c := NewClosure(g)
	c.Update()
	if _, ok := c.Entails(e[3]); ok {
		t.Fatal("a1–b1 must not be entailed while a1 is unlinked")
	}
	g.SetColor(e[2], Blue) // a1 = b0 → one cluster
	c.Update()
	if col, ok := c.Entails(e[3]); !ok || col != Blue {
		t.Fatalf("a1–b1: want entailed Blue through the cluster, got (%v, %v)", col, ok)
	}

	// Negative rule: a0=b0 ∧ a1≠b1 alone entails nothing about a0–b1;
	// adding a1=b0 makes it A=B ∧ B≠C ⟹ A≠C.
	g2, e2 := build()
	g2.SetColor(e2[0], Blue) // a0 = b0
	g2.SetColor(e2[3], Red)  // a1 ≠ b1
	c2 := NewClosure(g2)
	c2.Update()
	if _, ok := c2.Entails(e2[1]); ok {
		t.Fatal("red evidence alone must not entail across unlinked clusters")
	}
	g2.SetColor(e2[2], Blue) // a1 = b0 → {a0, a1, b0} ≠ {b1}
	c2.Update()
	if col, ok := c2.Entails(e2[1]); !ok || col != Red {
		t.Fatalf("a0–b1: want entailed Red via a0=b0=a1 ∧ a1≠b1, got (%v, %v)", col, ok)
	}
}

// TestClosureConflictsAndFixpoint: contradictory answers are counted
// and survived, and applying every entailed label back onto the graph
// is a one-pass fixpoint (no new entailments appear).
func TestClosureConflictsAndFixpoint(t *testing.T) {
	s := &Structure{Tables: []string{"L", "R"}, Preds: []QPred{{A: 0, B: 1}}}
	g := MustNewGraph(s, []int{2, 2})
	ab := g.AddEdge(0, 0, 0, 0.5) // a0–b0
	cd := g.AddEdge(0, 1, 0, 0.5) // a1–b0
	ef := g.AddEdge(0, 1, 1, 0.5) // a1–b1
	gh := g.AddEdge(0, 0, 1, 0.5) // a0–b1

	g.SetColor(ab, Blue)
	g.SetColor(cd, Blue) // {a0, a1, b0}
	g.SetColor(ef, Red)  // b1 ≠ cluster
	c := NewClosure(g)
	c.Update()
	if col, ok := c.Entails(gh); !ok || col != Red {
		t.Fatalf("a0–b1: want entailed Red, got (%v, %v)", col, ok)
	}
	// The crowd contradicts the entailment: direct answer wins.
	g.SetColor(gh, Blue)
	c.Update()
	if c.Conflicts() != 1 {
		t.Fatalf("conflicts = %d, want 1", c.Conflicts())
	}

	// Fixpoint: apply every entailed label, then demand quiescence.
	r := stats.NewRNG(3)
	for trial := 0; trial < 50; trial++ {
		g := randomClosureGraph(r)
		for step := 0; step < g.NumEdges()/2; step++ {
			id := r.Intn(g.NumEdges())
			if g.Edge(id).Color != Unknown {
				continue
			}
			col := Red
			if r.Bool(0.6) {
				col = Blue
			}
			g.SetColor(id, col)
		}
		c := NewClosure(g)
		c.Update()
		applied := 0
		for id := 0; id < g.NumEdges(); id++ {
			if col, ok := c.Entails(id); ok {
				g.SetColor(id, col)
				applied++
			}
		}
		conflictsBefore := c.Conflicts()
		c.Update()
		if c.Conflicts() != conflictsBefore {
			t.Fatalf("trial %d: applying entailed labels created %d conflicts",
				trial, c.Conflicts()-conflictsBefore)
		}
		for id := 0; id < g.NumEdges(); id++ {
			if _, ok := c.Entails(id); ok {
				t.Fatalf("trial %d: edge %d newly entailed after applying the closure (not a fixpoint)",
					trial, id)
			}
		}
		if c.rebuilds != 0 {
			t.Fatalf("trial %d: crowdsourcing-only run forced %d rebuilds", trial, c.rebuilds)
		}
	}
}
