package graph

import (
	"fmt"
	"slices"
	"testing"

	"cdb/internal/stats"
)

// chain4 builds the paper-style 4-table chain structure:
// University - Researcher - Paper - Citation.
func chain4() *Structure {
	return &Structure{
		Tables: []string{"University", "Researcher", "Paper", "Citation"},
		Preds: []QPred{
			{A: 0, B: 1, Name: "U.name~R.affiliation"},
			{A: 1, B: 2, Name: "R.name~P.author"},
			{A: 2, B: 3, Name: "P.title~C.title"},
		},
	}
}

func TestStructureValidate(t *testing.T) {
	if err := chain4().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Structure{Tables: []string{"A", "B"}, Preds: []QPred{{A: 0, B: 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range predicate accepted")
	}
	self := &Structure{Tables: []string{"A", "B"}, Preds: []QPred{{A: 1, B: 1}}}
	if err := self.Validate(); err == nil {
		t.Fatal("self-join predicate accepted")
	}
	disc := &Structure{Tables: []string{"A", "B", "C"}, Preds: []QPred{{A: 0, B: 1}}}
	if err := disc.Validate(); err == nil {
		t.Fatal("disconnected structure accepted")
	}
	empty := &Structure{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty structure accepted")
	}
}

func TestStructureKind(t *testing.T) {
	if k := chain4().Kind(); k != Chain {
		t.Fatalf("chain4 kind = %v", k)
	}
	star := &Structure{
		Tables: []string{"C", "A", "B", "D"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}},
	}
	if k := star.Kind(); k != Star {
		t.Fatalf("star kind = %v", k)
	}
	tree := &Structure{
		Tables: []string{"A", "B", "C", "D", "E"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 1, B: 3}, {A: 3, B: 4}},
	}
	if k := tree.Kind(); k != Tree {
		t.Fatalf("tree kind = %v", k)
	}
	cyc := &Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}},
	}
	if k := cyc.Kind(); k != Cyclic {
		t.Fatalf("cycle kind = %v", k)
	}
	multi := &Structure{
		Tables: []string{"A", "B"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 0, B: 1}},
	}
	if k := multi.Kind(); k != Cyclic {
		t.Fatalf("multi-edge kind = %v", k)
	}
	single := &Structure{Tables: []string{"A"}}
	if k := single.Kind(); k != SingleTable {
		t.Fatalf("single kind = %v", k)
	}
	two := &Structure{Tables: []string{"A", "B"}, Preds: []QPred{{A: 0, B: 1}}}
	if k := two.Kind(); k != Chain {
		t.Fatalf("two-table kind = %v", k)
	}
}

func TestVertexMapping(t *testing.T) {
	g := MustNewGraph(chain4(), []int{2, 3, 4, 5})
	if g.NumVertices() != 14 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	for tab := 0; tab < 4; tab++ {
		for row := 0; row < g.TupleCount(tab); row++ {
			v := g.VertexID(tab, row)
			if g.TableOf(v) != tab || g.RowOf(v) != row {
				t.Fatalf("mapping broken for (%d,%d): v=%d table=%d row=%d",
					tab, row, v, g.TableOf(v), g.RowOf(v))
			}
		}
	}
}

func TestVertexIDPanics(t *testing.T) {
	g := MustNewGraph(chain4(), []int{2, 3, 4, 5})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.VertexID(0, 99)
}

// buildSmall builds a 3-table chain A(2)-B(2)-C(2) with a complete
// bipartite edge set at weight 0.5 on both predicates.
func buildSmall() *Graph {
	s := &Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := MustNewGraph(s, []int{2, 2, 2})
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			g.AddEdge(0, a, b, 0.5)
		}
	}
	for b := 0; b < 2; b++ {
		for c := 0; c < 2; c++ {
			g.AddEdge(1, b, c, 0.5)
		}
	}
	return g
}

func TestValidityAllUnknown(t *testing.T) {
	g := buildSmall()
	for e := 0; e < g.NumEdges(); e++ {
		if !g.IsValid(e) {
			t.Fatalf("edge %d should be valid in complete graph", e)
		}
	}
}

func TestValidityAfterRed(t *testing.T) {
	// Kill both B-C edges of b0: then A-b0 edges become invalid.
	g := buildSmall()
	// Edge ids: 0..3 are A-B (a0b0, a0b1, a1b0, a1b1); 4..7 are B-C
	// (b0c0, b0c1, b1c0, b1c1).
	g.SetColor(4, Red)
	g.SetColor(5, Red)
	if g.IsValid(0) || g.IsValid(2) {
		t.Fatal("A-b0 edges should be invalid once b0 is cut off from C")
	}
	if !g.IsValid(1) || !g.IsValid(3) {
		t.Fatal("A-b1 edges should remain valid")
	}
	if g.IsValid(4) || g.IsValid(5) {
		t.Fatal("red edges are never valid")
	}
	if !g.IsValid(6) || !g.IsValid(7) {
		t.Fatal("b1-C edges should remain valid")
	}
}

func TestValidUncolored(t *testing.T) {
	g := buildSmall()
	if got := len(g.ValidUncolored()); got != 8 {
		t.Fatalf("valid uncolored = %d, want 8", got)
	}
	g.SetColor(4, Red)
	g.SetColor(5, Red)
	// Invalid: 0,2 (pruned), 4,5 red. Remaining: 1,3,6,7.
	if got := len(g.ValidUncolored()); got != 4 {
		t.Fatalf("valid uncolored = %d, want 4", got)
	}
	g.SetColor(1, Blue)
	if got := len(g.ValidUncolored()); got != 3 {
		t.Fatalf("valid uncolored = %d, want 3", got)
	}
}

func TestAnswers(t *testing.T) {
	g := buildSmall()
	if len(g.Answers()) != 0 {
		t.Fatal("no answers before any blue edges")
	}
	// Make chain a0-b0-c0 all blue.
	g.SetColor(0, Blue)
	g.SetColor(4, Blue)
	ans := g.Answers()
	if len(ans) != 1 {
		t.Fatalf("answers = %d, want 1", len(ans))
	}
	if ans[0].Assign[0] != g.VertexID(0, 0) || ans[0].Assign[1] != g.VertexID(1, 0) || ans[0].Assign[2] != g.VertexID(2, 0) {
		t.Fatalf("answer assignment wrong: %v", ans[0].Assign)
	}
	// Adding blue a1-b0 creates a second answer a1-b0-c0.
	g.SetColor(2, Blue)
	if len(g.Answers()) != 2 {
		t.Fatal("expected 2 answers")
	}
}

func TestCandidates(t *testing.T) {
	g := buildSmall()
	cands := g.Candidates(0)
	if len(cands) != 8 {
		t.Fatalf("candidates = %d, want 2*2*2", len(cands))
	}
	for _, c := range cands {
		if c.Prob != 0.25 {
			t.Fatalf("candidate prob = %v, want 0.25", c.Prob)
		}
	}
	// Color one edge blue: its candidates double in probability.
	g.SetColor(0, Blue)
	cands = g.Candidates(0)
	if cands[0].Prob != 0.5 {
		t.Fatalf("top candidate prob = %v, want 0.5", cands[0].Prob)
	}
	// Red removes candidates.
	g.SetColor(4, Red)
	cands = g.Candidates(0)
	if len(cands) != 6 {
		t.Fatalf("candidates after red = %d, want 6", len(cands))
	}
	// Cap respected.
	if got := len(g.Candidates(3)); got != 3 {
		t.Fatalf("capped candidates = %d", got)
	}
}

func TestSameCandidate(t *testing.T) {
	g := buildSmall()
	// a0b0 (0) and b0c0 (4) share b0: same candidate.
	if !g.SameCandidate(0, 4) {
		t.Fatal("edges sharing b0 should conflict")
	}
	// a0b0 (0) and b1c0 (6): different B tuples, never same candidate.
	if g.SameCandidate(0, 6) {
		t.Fatal("edges with different B tuples cannot conflict")
	}
	// Same predicate edges never conflict.
	if g.SameCandidate(0, 1) || g.SameCandidate(4, 5) {
		t.Fatal("same-predicate edges cannot conflict")
	}
	if !g.SameCandidate(3, 3) {
		t.Fatal("an edge trivially co-occurs with itself")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := buildSmall()
	if comps := g.ConnectedComponents(); len(comps) != 1 {
		t.Fatalf("components = %d, want 1", len(comps))
	}
	// Separate b0's world from b1's: kill cross edges a0b1, a1b0... the
	// bipartite A layer keeps everything connected through A tuples.
	// Instead redden everything touching b1.
	for _, e := range []int{1, 3, 6, 7} {
		g.SetColor(e, Red)
	}
	comps := g.ConnectedComponents()
	if len(comps) != 1 {
		t.Fatalf("components = %d, want 1 (b0 world)", len(comps))
	}
	if len(comps[0]) != 4 {
		t.Fatalf("component size = %d, want 4", len(comps[0]))
	}
}

func TestConnectedComponentsSplit(t *testing.T) {
	// Two disjoint A-B pairs.
	s := &Structure{Tables: []string{"A", "B"}, Preds: []QPred{{A: 0, B: 1}}}
	g := MustNewGraph(s, []int{2, 2})
	g.AddEdge(0, 0, 0, 0.5)
	g.AddEdge(0, 1, 1, 0.5)
	if comps := g.ConnectedComponents(); len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
}

// countColors tallies g's edges by color.
func countColors(g *Graph) (unknown, blue, red int) {
	for _, e := range g.edges {
		switch e.Color {
		case Unknown:
			unknown++
		case Blue:
			blue++
		default:
			red++
		}
	}
	return
}

func TestCountColors(t *testing.T) {
	g := buildSmall()
	g.SetColor(0, Blue)
	g.SetColor(1, Red)
	u, b, r := countColors(g)
	if u != 6 || b != 1 || r != 1 {
		t.Fatalf("colors = %d/%d/%d", u, b, r)
	}
}

func TestCutLossPaperExample(t *testing.T) {
	// Reconstruct the fragment of Figure 4 used in the paper's Eq. 1
	// walkthrough: u1,u2,u3 - r1,r2,r3 - p1 - c1.
	// Edges: (u1,r1),(u1,r2),(u2,r1),(u2,r2),(u3,r3) on pred 0;
	// (r1,p1) w=.42, (r2,p1) w=.41, (r3,p1) w=.83 on pred 1; (p1,c1) pred 2.
	s := chain4()
	g := MustNewGraph(s, []int{3, 3, 1, 1})
	g.AddEdge(0, 0, 0, 0.5) // u1-r1
	g.AddEdge(0, 0, 1, 0.5) // u1-r2
	g.AddEdge(0, 1, 0, 0.5) // u2-r1
	g.AddEdge(0, 1, 1, 0.5) // u2-r2
	g.AddEdge(0, 2, 2, 0.5) // u3-r3
	g.AddEdge(1, 0, 0, 0.42)
	g.AddEdge(1, 1, 0, 0.41)
	g.AddEdge(1, 2, 0, 0.83)
	g.AddEdge(2, 0, 0, 0.5) // p1-c1

	r1 := g.VertexID(1, 0)
	p1 := g.VertexID(2, 0)

	// Cutting r1's single edge to Paper invalidates (u1,r1),(u2,r1): α=2.
	loss, bundle := g.CutLoss(r1, 1)
	if bundle != 1 || loss != 2 {
		t.Fatalf("CutLoss(r1, pred1) = (%d,%d), want (2,1)", loss, bundle)
	}
	// Cutting p1's three edges to Researcher invalidates 6 edges.
	loss, bundle = g.CutLoss(p1, 1)
	if bundle != 3 || loss != 6 {
		t.Fatalf("CutLoss(p1, pred1) = (%d,%d), want (6,3)", loss, bundle)
	}
	// State unchanged afterwards.
	for e := 0; e < g.NumEdges(); e++ {
		if !g.IsValid(e) {
			t.Fatalf("edge %d no longer valid after hypothetical cuts", e)
		}
	}
}

func TestCutLossMissingPred(t *testing.T) {
	g := buildSmall()
	// Vertex in table A has no slot for predicate 1.
	loss, bundle := g.CutLoss(g.VertexID(0, 0), 1)
	if loss != 0 || bundle != 0 {
		t.Fatalf("CutLoss on absent predicate = (%d,%d)", loss, bundle)
	}
}

// randomGraph builds a random graph on a random tree structure for
// property tests.
func randomGraph(r *stats.RNG) *Graph {
	nTables := 2 + r.Intn(3)
	s := &Structure{}
	for i := 0; i < nTables; i++ {
		s.Tables = append(s.Tables, string(rune('A'+i)))
	}
	for i := 1; i < nTables; i++ {
		s.Preds = append(s.Preds, QPred{A: r.Intn(i), B: i})
	}
	counts := make([]int, nTables)
	for i := range counts {
		counts[i] = 1 + r.Intn(3)
	}
	g := MustNewGraph(s, counts)
	for p, pd := range s.Preds {
		for a := 0; a < counts[pd.A]; a++ {
			for b := 0; b < counts[pd.B]; b++ {
				if r.Bool(0.7) {
					g.AddEdge(p, a, b, 0.1+0.8*r.Float64())
				}
			}
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		switch r.Intn(4) {
		case 0:
			g.SetColor(e, Red)
		case 1:
			g.SetColor(e, Blue)
		}
	}
	return g
}

// TestValidityMatchesBacktracking cross-checks the tree DP against the
// general backtracking definition of validity on random graphs.
func TestValidityMatchesBacktracking(t *testing.T) {
	r := stats.NewRNG(2024)
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(r)
		g.Revalidate()
		for e := 0; e < g.NumEdges(); e++ {
			want := g.edges[e].Color != Red && g.existsCandidateWithPins([]int{e})
			if got := g.IsValid(e); got != want {
				t.Fatalf("trial %d edge %d: DP validity %v, backtracking %v", trial, e, got, want)
			}
		}
	}
}

// TestCutLossMatchesBruteForce cross-checks the journaled hypothetical
// cut against full recomputation.
func TestCutLossMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(555)
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(r)
		g.Revalidate()
		for v := 0; v < g.NumVertices(); v++ {
			for _, pred := range g.predsByTable[g.TableOf(v)] {
				gotLoss, gotBundle := g.CutLoss(v, pred)
				wantLoss, wantBundle := g.cutLossBrute(v, pred)
				if gotLoss != wantLoss || gotBundle != wantBundle {
					t.Fatalf("trial %d vertex %d pred %d: CutLoss (%d,%d), brute (%d,%d)",
						trial, v, pred, gotLoss, gotBundle, wantLoss, wantBundle)
				}
			}
		}
	}
}

// TestCutLossLeavesStateIntact: repeated hypothetical cuts never
// change observable validity.
func TestCutLossLeavesStateIntact(t *testing.T) {
	r := stats.NewRNG(777)
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(r)
		g.Revalidate()
		before := append([]bool(nil), g.valid...)
		for v := 0; v < g.NumVertices(); v++ {
			for _, pred := range g.predsByTable[g.TableOf(v)] {
				g.CutLoss(v, pred)
			}
		}
		g.Revalidate()
		for i := range before {
			if g.valid[i] != before[i] {
				t.Fatalf("trial %d: validity drifted at edge %d", trial, i)
			}
		}
	}
}

// TestCutLossRollsFactsBack: on a star whose centre and one spoke also
// carry a selection (a one-tuple pseudo-table each, so the centre has
// five slots and the tables differ in slot count), every hypothetical
// cut leaves the flat cover, support and false-count arrays exactly as
// it found them, and a rebuild from the colors agrees with them.
func TestCutLossRollsFactsBack(t *testing.T) {
	s := &Structure{
		Tables: []string{"C", "X", "Y", "Z", "$c", "$x"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 0, B: 2}, {A: 3, B: 0}, {A: 0, B: 4}, {A: 1, B: 5}},
	}
	r := stats.NewRNG(22)
	for trial := 0; trial < 50; trial++ {
		counts := []int{2 + r.Intn(3), 1 + r.Intn(4), 1 + r.Intn(4), 1 + r.Intn(4), 1, 1}
		g := MustNewGraph(s, counts)
		for p, pd := range s.Preds {
			for a := 0; a < counts[pd.A]; a++ {
				for b := 0; b < counts[pd.B]; b++ {
					if r.Bool(0.75) {
						g.SetColor(g.AddEdge(p, a, b, 0.5), []Color{Unknown, Unknown, Blue, Red}[r.Intn(4)])
					}
				}
			}
		}
		g.Revalidate()
		snapshot := func() ([]bool, []int32, []int32, []bool) {
			return slices.Clone(g.cs.cover), slices.Clone(g.cs.support), slices.Clone(g.cs.falseCount), slices.Clone(g.valid)
		}
		cover, support, falseCount, valid := snapshot()
		if len(cover) != g.NumBundles() || len(support) != g.NumBundles() || len(falseCount) != g.nVerts {
			t.Fatalf("facts sized %d/%d/%d for %d bundles, %d vertices", len(cover), len(support), len(falseCount), g.NumBundles(), g.nVerts)
		}
		same := func(ctx string) {
			t.Helper()
			c, sp, f, v := snapshot()
			if !slices.Equal(c, cover) || !slices.Equal(sp, support) || !slices.Equal(f, falseCount) || !slices.Equal(v, valid) {
				t.Fatalf("trial %d, %s: facts changed\ncover   %v\n     -> %v\nsupport %v\n     -> %v\nfalse   %v\n     -> %v",
					trial, ctx, cover, c, support, sp, falseCount, f)
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			for _, pred := range g.predsByTable[g.TableOf(v)] {
				g.CutLoss(v, pred)
				same(fmt.Sprintf("after CutLoss(%d, %d)", v, pred))
			}
		}
		g.dirty = true
		g.Revalidate()
		same("after a rebuild")
	}
}

func TestTreeToChain(t *testing.T) {
	// Chain stays a chain.
	walk := chain4().TreeToChain()
	if len(walk) != 4 {
		t.Fatalf("chain walk length = %d, want 4", len(walk))
	}
	if walk[0].Pred != -1 {
		t.Fatal("first step must have no incoming predicate")
	}
	// Star: center with 3 leaves; walk must traverse each predicate.
	star := &Structure{
		Tables: []string{"C", "A", "B", "D"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 0, B: 2}, {A: 0, B: 3}},
	}
	walk = star.TreeToChain()
	seenPred := map[int]bool{}
	for i, st := range walk {
		if i == 0 {
			continue
		}
		seenPred[st.Pred] = true
		// Consecutive steps must be joined by the claimed predicate.
		p := star.Preds[st.Pred]
		prev := walk[i-1].Table
		if !(p.A == prev && p.B == st.Table) && !(p.B == prev && p.A == st.Table) {
			t.Fatalf("step %d: predicate %d does not join %d-%d", i, st.Pred, prev, st.Table)
		}
	}
	if len(seenPred) != 3 {
		t.Fatalf("walk covered %d predicates, want 3", len(seenPred))
	}
}

func TestTreeToChainPanicsOnCycle(t *testing.T) {
	cyc := &Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cyc.TreeToChain()
}

func TestBreakCycles(t *testing.T) {
	cyc := &Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}},
	}
	tree, origin := cyc.BreakCycles()
	if tree.Kind() == Cyclic {
		t.Fatalf("still cyclic: %+v", tree)
	}
	if len(tree.Tables) != 4 {
		t.Fatalf("tables = %d, want 4 (one duplicate)", len(tree.Tables))
	}
	if origin[3] != 0 {
		t.Fatalf("duplicate should mirror table 0, got %d", origin[3])
	}
	// Acyclic input passes through unchanged.
	tr, org := chain4().BreakCycles()
	if len(tr.Tables) != 4 || len(org) != 4 {
		t.Fatal("acyclic structure should be unchanged")
	}
}

func TestCyclicValidityFallback(t *testing.T) {
	// Triangle structure: A-B-C-A, one tuple each, all edges present.
	s := &Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 0}},
	}
	g := MustNewGraph(s, []int{1, 1, 1})
	e0 := g.AddEdge(0, 0, 0, 0.5)
	e1 := g.AddEdge(1, 0, 0, 0.5)
	e2 := g.AddEdge(2, 0, 0, 0.5)
	if !g.IsValid(e0) || !g.IsValid(e1) || !g.IsValid(e2) {
		t.Fatal("triangle edges should all be valid")
	}
	g.SetColor(e2, Red)
	if g.IsValid(e0) || g.IsValid(e1) {
		t.Fatal("breaking the triangle invalidates the others")
	}
	// CutLoss brute path.
	g2 := MustNewGraph(s, []int{1, 1, 1})
	g2.AddEdge(0, 0, 0, 0.5)
	g2.AddEdge(1, 0, 0, 0.5)
	g2.AddEdge(2, 0, 0, 0.5)
	loss, bundle := g2.CutLoss(g2.VertexID(0, 0), 0)
	if bundle != 1 || loss != 2 {
		t.Fatalf("cyclic CutLoss = (%d,%d), want (2,1)", loss, bundle)
	}
}

func TestColorString(t *testing.T) {
	if Unknown.String() != "unknown" || Blue.String() != "blue" || Red.String() != "red" {
		t.Fatal("color strings broken")
	}
	if Color(9).String() != "Color(9)" {
		t.Fatal("unknown color rendering broken")
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{SingleTable: "single-table", Chain: "chain", Star: "star", Tree: "tree", Cyclic: "cyclic", Kind(42): "unknown"}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", int(k), k.String())
		}
	}
}

func TestNewGraphErrors(t *testing.T) {
	s := chain4()
	if _, err := NewGraph(s, []int{1, 2}); err == nil {
		t.Fatal("count/table mismatch accepted")
	}
	if _, err := NewGraph(s, []int{1, 2, 3, -1}); err == nil {
		t.Fatal("negative count accepted")
	}
	bad := &Structure{Tables: []string{"A", "B", "C"}, Preds: []QPred{{A: 0, B: 1}}}
	if _, err := NewGraph(bad, []int{1, 1, 1}); err == nil {
		t.Fatal("disconnected structure accepted")
	}
}

func TestMustNewGraphPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewGraph(chain4(), []int{1})
}

func TestSetWeightAndAccessors(t *testing.T) {
	g := buildSmall()
	g.SetWeight(0, 0.75)
	if g.Edge(0).W != 0.75 {
		t.Fatal("SetWeight lost")
	}
	if got := g.EdgesAt(g.VertexID(0, 0), 1); got != nil {
		t.Fatalf("table A has no pred-1 slot, got %v", got)
	}
	all := g.AllEdgesAt(g.VertexID(1, 0)) // b0: 2 A-edges + 2 C-edges
	if len(all) != 4 {
		t.Fatalf("AllEdgesAt(b0) = %v", all)
	}
	if g.NumTables() != 3 || g.TupleCount(1) != 2 {
		t.Fatal("table accessors broken")
	}
}

func TestAddEdgePanicsOnBadPred(t *testing.T) {
	g := buildSmall()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AddEdge(9, 0, 0, 0.5)
}

func TestSetColorIdempotent(t *testing.T) {
	g := buildSmall()
	g.Revalidate()
	g.SetColor(0, Blue)
	g.Revalidate()
	// Re-setting the same color must not dirty the graph (cheap check:
	// validity is still queryable and unchanged).
	g.SetColor(0, Blue)
	if !g.IsValid(1) {
		t.Fatal("validity lost after idempotent recolor")
	}
}

func TestCandidatesCapZero(t *testing.T) {
	g := buildSmall()
	if got := len(g.Candidates(-1)); got != 8 {
		t.Fatalf("negative cap should mean unlimited, got %d", got)
	}
}

func TestEnumerateEmbeddingsPins(t *testing.T) {
	g := buildSmall()
	count := 0
	g.EnumerateEmbeddings([]int{0}, func(e Edge) bool { return true }, func(_, edges []int) bool {
		if edges[0] != 0 {
			t.Fatal("pinned edge not honoured")
		}
		count++
		return true
	})
	if count != 2 {
		t.Fatalf("pinned enumeration found %d embeddings, want 2", count)
	}
	// Contradictory pins: no embeddings.
	count = 0
	g.EnumerateEmbeddings([]int{0, 1}, func(e Edge) bool { return true }, func(_, _ []int) bool {
		count++
		return true
	})
	if count != 0 {
		t.Fatal("contradictory pins should yield nothing")
	}
}

// TestLoneTableEmbedsEveryTuple: a single table with no predicate (a
// valid structure) has one embedding per tuple, so SELECT * FROM T
// answers every row instead of one embedding that assigns no tuple.
func TestLoneTableEmbedsEveryTuple(t *testing.T) {
	g, err := NewGraph(&Structure{Tables: []string{"A"}}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	answers := g.Answers()
	if len(answers) != 3 {
		t.Fatalf("%d answers, want 3: %+v", len(answers), answers)
	}
	for row, a := range answers {
		if len(a.Assign) != 1 || a.Assign[0] != g.VertexID(0, row) || len(a.Edges) != 0 {
			t.Errorf("answer %d = %+v, want tuple %d alone", row, a, row)
		}
	}
	if got := len(g.Candidates(0)); got != 3 {
		t.Errorf("%d candidates, want 3", got)
	}
}
