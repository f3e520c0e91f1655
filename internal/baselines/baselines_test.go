package baselines

import (
	"slices"
	"testing"

	"cdb/internal/graph"
)

// chainGraph builds a 3-table chain with controllable edges; returns
// the graph and a truth slice.
func chainGraph(edges [][4]interface{}) (*graph.Graph, []bool) {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{4, 4, 4})
	var truth []bool
	for _, e := range edges {
		g.AddEdge(e[0].(int), e[1].(int), e[2].(int), 0.5)
		truth = append(truth, e[3].(bool))
	}
	return g, truth
}

func TestCrowdDBAndQurkOrders(t *testing.T) {
	s := &graph.Structure{
		Tables: []string{"P", "C", "$const:sigmod"},
		Preds: []graph.QPred{
			{A: 0, B: 1, Name: "join"},
			{A: 0, B: 2, Name: "sel"},
		},
	}
	cdbOrder := CrowdDBOrder(s)
	if cdbOrder[0] != 1 || cdbOrder[1] != 0 {
		t.Fatalf("CrowdDB should push the selection first: %v", cdbOrder)
	}
	qurk := QurkOrder(s)
	if qurk[0] != 0 || qurk[1] != 1 {
		t.Fatalf("Qurk should run joins first: %v", qurk)
	}
}

func TestSimulateOrderCostMatchesTreeSemantics(t *testing.T) {
	// A(a0,a1) - B(b0,b1) - C(c0): a0-b0 blue, a1-b1 red; b0-c0 blue.
	g, truth := chainGraph([][4]interface{}{
		{0, 0, 0, true},  // a0-b0 blue
		{0, 1, 1, false}, // a1-b1 red
		{1, 0, 0, true},  // b0-c0 blue
		{1, 1, 0, false}, // b1-c0 red
	})
	// Order [0,1]: round 1 asks both pred-0 edges (2); survivors: b0;
	// round 2 asks b0-c0 only (1). Total 3.
	if c := SimulateOrderCost(g, truth, []int{0, 1}); c != 3 {
		t.Fatalf("order [0,1] cost = %d, want 3", c)
	}
	// Order [1,0]: round 1 asks both pred-1 edges (2); survivors b0;
	// round 2 asks a-b edges touching alive b (a0-b0 only). Total 3.
	if c := SimulateOrderCost(g, truth, []int{1, 0}); c != 3 {
		t.Fatalf("order [1,0] cost = %d, want 3", c)
	}
}

func TestOptTreePicksCheaperOrder(t *testing.T) {
	// Asymmetric: pred 0 has 6 edges, pred 1 has 1 red edge that kills
	// everything. Order [1,0] costs 1; order [0,1] costs 6.
	g, truth := chainGraph([][4]interface{}{
		{0, 0, 0, true}, {0, 0, 1, true}, {0, 1, 0, true},
		{0, 1, 1, true}, {0, 2, 0, true}, {0, 2, 1, true},
		{1, 0, 0, false}, {1, 1, 0, false},
	})
	order := OptTreeOrder(g, truth)
	if order[0] != 1 {
		t.Fatalf("OptTree should start with the cheap killing predicate: %v", order)
	}
	if c := SimulateOrderCost(g, truth, order); c != 2 {
		t.Fatalf("optimal order cost = %d, want 2", c)
	}
}

func TestEstimateOrderCostSanity(t *testing.T) {
	g, _ := chainGraph([][4]interface{}{
		{0, 0, 0, true}, {0, 1, 1, true},
		{1, 0, 0, true},
	})
	c01 := EstimateOrderCost(g, []int{0, 1})
	c10 := EstimateOrderCost(g, []int{1, 0})
	if c01 <= 0 || c10 <= 0 {
		t.Fatalf("estimates must be positive: %v %v", c01, c10)
	}
	// Starting with the single-edge predicate should not be estimated
	// as more expensive than starting with the two-edge one.
	if c10 > c01+1e-9 {
		t.Fatalf("estimate prefers the wrong order: [1,0]=%v > [0,1]=%v", c10, c01)
	}
}

func TestTreeModelRunsStageByStage(t *testing.T) {
	g, truth := chainGraph([][4]interface{}{
		{0, 0, 0, true}, {0, 1, 1, false},
		{1, 0, 0, true}, {1, 1, 1, true},
	})
	tm := NewTreeModel("test", []int{0, 1})
	if tm.Name() != "test" {
		t.Fatal("name lost")
	}
	b1 := tm.NextRound(g)
	if len(b1) != 2 {
		t.Fatalf("round 1 = %v, want both pred-0 edges", b1)
	}
	for _, e := range b1 {
		if truth[e] {
			g.SetColor(e, graph.Blue)
		} else {
			g.SetColor(e, graph.Red)
		}
	}
	b2 := tm.NextRound(g)
	// Only b0 survived; b1-c1 edge (id 3) must not be asked.
	if len(b2) != 1 || b2[0] != 2 {
		t.Fatalf("round 2 = %v, want just the b0-c0 edge", b2)
	}
	for _, e := range b2 {
		g.SetColor(e, graph.Blue)
	}
	if b3 := tm.NextRound(g); b3 != nil {
		t.Fatalf("round 3 = %v, want nil", b3)
	}
}

func TestTreeModelFlush(t *testing.T) {
	g, _ := chainGraph([][4]interface{}{
		{0, 0, 0, true}, {1, 0, 0, true}, {1, 1, 1, true},
	})
	tm := NewTreeModel("t", []int{0, 1})
	flush := tm.Flush(g)
	// Everything reachable under tree semantics: pred-0 edge, then
	// pred-1 edges of alive tuples. b1 is alive for pred 1? b1 has no
	// blue pred-0 edge yet (nothing asked), so alive = all vertices of
	// untouched tables at stage 0, then restricted.
	if len(flush) == 0 {
		t.Fatal("flush returned nothing")
	}
	seen := map[int]bool{}
	for _, e := range flush {
		if seen[e] {
			t.Fatal("flush contains duplicates")
		}
		seen[e] = true
	}
}

func TestERDeductions(t *testing.T) {
	// One join; b0 appears in two edges from a0 and a1. With side
	// dedup revealing a0~a1, Trans deduces (a1,b0) from (a0,b0).
	s := &graph.Structure{
		Tables: []string{"A", "B"},
		Preds:  []graph.QPred{{A: 0, B: 1}},
	}
	g := graph.MustNewGraph(s, []int{2, 1})
	e0 := g.AddEdge(0, 0, 0, 0.9) // a0-b0, truth blue
	e1 := g.AddEdge(0, 1, 0, 0.8) // a1-b0, truth blue (same entity)
	tr := NewTrans()
	tr.Side = func(pred int, alive []bool) []SidePair {
		return []SidePair{{U: g.VertexID(0, 0), V: g.VertexID(0, 1), Match: true}}
	}
	b1 := tr.NextRound(g)
	if len(b1) != 1 || b1[0] != e0 {
		t.Fatalf("round 1 = %v, want just the heaviest pair", b1)
	}
	g.SetColor(e0, graph.Blue)
	b2 := tr.NextRound(g)
	if b2 != nil {
		t.Fatalf("round 2 = %v, want nil (e1 deduced via transitivity)", b2)
	}
	if g.Edge(e1).Color != graph.Blue {
		t.Fatal("e1 should be deduced blue")
	}
	if tr.ExtraTasks() != 1 {
		t.Fatalf("extra tasks = %d, want 1 side pair", tr.ExtraTasks())
	}
}

func TestACDDoesNotTrustPositive(t *testing.T) {
	s := &graph.Structure{
		Tables: []string{"A", "B"},
		Preds:  []graph.QPred{{A: 0, B: 1}},
	}
	g := graph.MustNewGraph(s, []int{2, 1})
	e0 := g.AddEdge(0, 0, 0, 0.9)
	e1 := g.AddEdge(0, 1, 0, 0.8)
	acd := NewACD()
	acd.Side = func(int, []bool) []SidePair {
		return []SidePair{{U: g.VertexID(0, 0), V: g.VertexID(0, 1), Match: true}}
	}
	b1 := acd.NextRound(g)
	g.SetColor(b1[0], graph.Blue)
	b2 := acd.NextRound(g)
	if len(b2) != 1 || b2[0] != e1 {
		t.Fatalf("ACD must re-verify positive deductions, got %v", b2)
	}
	_ = e0
}

func TestERNegativeDeduction(t *testing.T) {
	// b0 and b1 are the same entity (side dedup says so); a0-b0 red
	// implies a0-b1 red for BOTH Trans and ACD.
	s := &graph.Structure{
		Tables: []string{"A", "B"},
		Preds:  []graph.QPred{{A: 0, B: 1}},
	}
	for _, mk := range []func() *ER{NewTrans, NewACD} {
		g := graph.MustNewGraph(s, []int{1, 2})
		e0 := g.AddEdge(0, 0, 0, 0.9)
		e1 := g.AddEdge(0, 0, 1, 0.8)
		er := mk()
		er.Side = func(int, []bool) []SidePair {
			return []SidePair{{U: g.VertexID(1, 0), V: g.VertexID(1, 1), Match: true}}
		}
		b1 := er.NextRound(g)
		if len(b1) != 1 || b1[0] != e0 {
			t.Fatalf("%s round 1 = %v", er.Name(), b1)
		}
		g.SetColor(e0, graph.Red)
		if b2 := er.NextRound(g); b2 != nil {
			t.Fatalf("%s round 2 = %v, want nil (negative deduction)", er.Name(), b2)
		}
		if g.Edge(e1).Color != graph.Red {
			t.Fatalf("%s: e1 should be deduced red", er.Name())
		}
	}
}

func TestERWavesAreClusterDisjoint(t *testing.T) {
	// Two pairs sharing cluster b0 must go in different waves.
	s := &graph.Structure{
		Tables: []string{"A", "B"},
		Preds:  []graph.QPred{{A: 0, B: 1}},
	}
	g := graph.MustNewGraph(s, []int{2, 1})
	g.AddEdge(0, 0, 0, 0.9)
	g.AddEdge(0, 1, 0, 0.8)
	tr := NewTrans()
	b1 := tr.NextRound(g)
	if len(b1) != 1 {
		t.Fatalf("wave 1 = %v, want a single pair (shared endpoint)", b1)
	}
}

func TestGreedyBudgetPicksHeaviestFirst(t *testing.T) {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{2, 2, 2})
	g.AddEdge(0, 0, 0, 0.3)
	g.AddEdge(0, 1, 1, 0.9)
	g.AddEdge(1, 0, 0, 0.5)
	g.AddEdge(1, 1, 1, 0.6)
	gb := NewGreedyBudget()
	b := gb.NextRound(g)
	if len(b) != 1 {
		t.Fatalf("first pick = %v", b)
	}
	// Whatever predicate the cost model chose to start with, the pick
	// must be that predicate's heaviest edge.
	ed := g.Edge(b[0])
	for e := 0; e < g.NumEdges(); e++ {
		if o := g.Edge(e); o.Pred == ed.Pred && o.W > ed.W {
			t.Fatalf("picked %d (w=%v) but %d (w=%v) is heavier on the same predicate", b[0], ed.W, e, o.W)
		}
	}
}

func TestGreedyBudgetFollowsBlueForFree(t *testing.T) {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{1, 1, 2})
	e0 := g.AddEdge(0, 0, 0, 0.9)
	e1 := g.AddEdge(1, 0, 0, 0.8)
	e2 := g.AddEdge(1, 0, 1, 0.7)
	gb := NewGreedyBudget()
	b := gb.NextRound(g)
	if b[0] != e0 {
		t.Fatalf("first = %v", b)
	}
	g.SetColor(e0, graph.Blue)
	b = gb.NextRound(g)
	if b[0] != e1 {
		t.Fatalf("second = %v, want heaviest extension %d", b, e1)
	}
	g.SetColor(e1, graph.Blue) // chain complete; next walk re-uses e0 free
	b = gb.NextRound(g)
	if len(b) != 1 || b[0] != e2 {
		t.Fatalf("third = %v, want %d via the free blue prefix", b, e2)
	}
}

func TestERFlushDrainsEverything(t *testing.T) {
	g, _ := chainGraph([][4]interface{}{
		{0, 0, 0, true}, {0, 1, 1, true},
		{1, 0, 0, true}, {1, 1, 1, true},
	})
	tr := NewTrans()
	if tr.Name() != "Trans" || NewACD().Name() != "ACD" {
		t.Fatal("names broken")
	}
	b1 := tr.NextRound(g)
	for _, e := range b1 {
		g.SetColor(e, graph.Blue)
	}
	flush := tr.Flush(g)
	// Every remaining uncolored edge reachable under tree semantics must
	// be in the flush, with no duplicates.
	seen := map[int]bool{}
	for _, e := range flush {
		if seen[e] {
			t.Fatal("duplicate in flush")
		}
		if g.Edge(e).Color != graph.Unknown {
			t.Fatal("flush returned a colored edge")
		}
		seen[e] = true
	}
	if tr.NextRound(g) != nil && len(flush) == 0 {
		t.Fatal("flush drained nothing but rounds continue")
	}
}

func TestERFlushBeforeAnyRound(t *testing.T) {
	g, _ := chainGraph([][4]interface{}{
		{0, 0, 0, true}, {1, 0, 0, true},
	})
	tr := NewTrans()
	flush := tr.Flush(g)
	if len(flush) != 2 {
		t.Fatalf("cold flush = %v, want both edges", flush)
	}
}

func TestGreedyBudgetFlush(t *testing.T) {
	g, _ := chainGraph([][4]interface{}{
		{0, 0, 0, true}, {0, 1, 1, true}, {1, 0, 0, true},
	})
	g.SetColor(1, graph.Red)
	flush := NewGreedyBudget().Flush(g)
	if !slices.Equal(flush, []int{0, 2}) && !slices.Equal(flush, []int{2, 0}) {
		t.Fatalf("flush = %v, want every unknown edge (the account, not the baseline, caps it)", flush)
	}
}

func TestERUnionMergesNonMatchConstraints(t *testing.T) {
	// a0-b0 comes back red, then side dedup merges b0~b1: the
	// non-match must survive the merge so a0-b1 is deduced red.
	s := &graph.Structure{
		Tables: []string{"A", "B"},
		Preds:  []graph.QPred{{A: 0, B: 1}},
	}
	g := graph.MustNewGraph(s, []int{1, 2})
	e0 := g.AddEdge(0, 0, 0, 0.9)
	e1 := g.AddEdge(0, 0, 1, 0.8)
	tr := NewTrans()
	b1 := tr.NextRound(g) // asks e0 (no side info yet)
	if len(b1) != 1 || b1[0] != e0 {
		t.Fatalf("round 1 = %v", b1)
	}
	g.SetColor(e0, graph.Red)
	tr.cl.Update()
	tr.cl.Assume(0, g.VertexID(1, 0), g.VertexID(1, 1), true)
	if b2 := tr.NextRound(g); b2 != nil {
		t.Fatalf("round 2 = %v, want nil (a0-b1 deduced)", b2)
	}
	if g.Edge(e1).Color != graph.Red {
		t.Fatal("non-match lost across the merge: a0-b1 not deduced red")
	}
}

func TestGreedyBudgetNothingLeft(t *testing.T) {
	g, _ := chainGraph([][4]interface{}{{0, 0, 0, true}, {1, 0, 0, true}})
	g.SetColor(0, graph.Red)
	g.SetColor(1, graph.Red)
	gb := NewGreedyBudget()
	if gb.Name() != "Baseline" {
		t.Fatal("name broken")
	}
	if b := gb.NextRound(g); b != nil {
		t.Fatalf("nothing should be askable, got %v", b)
	}
}
