package baselines

import (
	"fmt"
	"sort"
	"testing"

	"cdb/internal/graph"
	"cdb/internal/stats"
)

// aliveVertices is the reference Graph.Survivors is held to: the
// tree baselines' own map-based liveness. A vertex of a touched table
// is alive iff it appears in an all-blue embedding of its connected
// group of processed predicates; vertices of untouched tables are all
// alive.
func aliveVertices(g *graph.Graph, processed []int, isBlue func(edgeID int) bool) map[int]bool {
	alive := map[int]bool{}
	touched := map[int]bool{}
	for _, p := range processed {
		touched[g.S.Preds[p].A] = true
		touched[g.S.Preds[p].B] = true
	}
	for tab := 0; tab < g.NumTables(); tab++ {
		if touched[tab] {
			continue
		}
		for row := 0; row < g.TupleCount(tab); row++ {
			alive[g.VertexID(tab, row)] = true
		}
	}
	for _, group := range connectedGroups(g.S, processed) {
		markAlive(g, group, isBlue, alive)
	}
	return alive
}

// connectedGroups partitions a predicate subset into groups connected
// through shared tables.
func connectedGroups(s *graph.Structure, preds []int) [][]int {
	parent := map[int]int{}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	tableOwner := map[int]int{} // table -> representative pred
	for _, p := range preds {
		parent[p] = p
	}
	for _, p := range preds {
		for _, tab := range []int{s.Preds[p].A, s.Preds[p].B} {
			if o, ok := tableOwner[tab]; ok {
				union(o, p)
			} else {
				tableOwner[tab] = p
			}
		}
	}
	byRoot := map[int][]int{}
	for _, p := range preds {
		byRoot[find(p)] = append(byRoot[find(p)], p)
	}
	out := make([][]int, 0, len(byRoot))
	for _, g := range byRoot {
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// markAlive enumerates all-blue embeddings of one connected predicate
// group by backtracking and marks their vertices alive.
func markAlive(g *graph.Graph, group []int, isBlue func(int) bool, alive map[int]bool) {
	// Order the group's predicates connectedly.
	order := make([]int, 0, len(group))
	used := map[int]bool{}
	tabs := map[int]bool{}
	order = append(order, group[0])
	used[group[0]] = true
	tabs[g.S.Preds[group[0]].A] = true
	tabs[g.S.Preds[group[0]].B] = true
	for len(order) < len(group) {
		for _, p := range group {
			if used[p] {
				continue
			}
			if tabs[g.S.Preds[p].A] || tabs[g.S.Preds[p].B] {
				used[p] = true
				tabs[g.S.Preds[p].A] = true
				tabs[g.S.Preds[p].B] = true
				order = append(order, p)
			}
		}
	}

	assign := map[int]int{} // table -> vertex
	var rec func(k int)
	rec = func(k int) {
		if k == len(order) {
			for _, v := range assign {
				alive[v] = true
			}
			return
		}
		p := order[k]
		pd := g.S.Preds[p]
		try := func(eID int) {
			if !isBlue(eID) {
				return
			}
			e := g.Edge(eID)
			savedA, okA := assign[pd.A]
			savedB, okB := assign[pd.B]
			if okA && savedA != e.U {
				return
			}
			if okB && savedB != e.V {
				return
			}
			assign[pd.A], assign[pd.B] = e.U, e.V
			rec(k + 1)
			if okA {
				assign[pd.A] = savedA
			} else {
				delete(assign, pd.A)
			}
			if okB {
				assign[pd.B] = savedB
			} else {
				delete(assign, pd.B)
			}
		}
		if v, ok := assign[pd.A]; ok {
			for _, eID := range g.EdgesAt(v, p) {
				try(int(eID))
			}
			return
		}
		if v, ok := assign[pd.B]; ok {
			for _, eID := range g.EdgesAt(v, p) {
				try(int(eID))
			}
			return
		}
		for eID := 0; eID < g.NumEdges(); eID++ {
			if g.Edge(eID).Pred == p {
				try(int(eID))
			}
		}
	}
	rec(0)
}

// survivorShapes are the structures the liveness trials draw from:
// random chains, stars and trees, a triangle, a two-predicate
// multi-edge and a 4-cycle with a chord.
var survivorShapes = []string{"chain", "star", "tree", "triangle", "multi-edge", "chorded-4-cycle"}

// survivorCase draws one liveness trial from r: a structure of the
// given shape with 1–4 rows per table, random edges in random colours,
// a predicate subset (empty, possibly disconnected, in shuffled order)
// and a colouring the walk keeps: the blue edges, the non-red ones, or
// an arbitrary truth by edge id.
func survivorCase(shape int, r *stats.RNG) (g *graph.Graph, preds []int, keep func(int) bool, desc string) {
	n := 2 + r.Intn(4)
	var pairs [][2]int
	switch survivorShapes[shape%len(survivorShapes)] {
	case "chain":
		for i := 1; i < n; i++ {
			pairs = append(pairs, [2]int{i - 1, i})
		}
	case "star":
		for i := 1; i < n; i++ {
			pairs = append(pairs, [2]int{0, i})
		}
	case "tree":
		for i := 1; i < n; i++ {
			pairs = append(pairs, [2]int{r.Intn(i), i})
		}
	case "triangle":
		n, pairs = 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}
	case "multi-edge":
		n, pairs = 3, [][2]int{{0, 1}, {0, 1}, {1, 2}}
	default:
		n, pairs = 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	}
	s := &graph.Structure{}
	counts := make([]int, n)
	for t := range counts {
		s.Tables = append(s.Tables, fmt.Sprintf("T%d", t))
		counts[t] = 1 + r.Intn(4)
	}
	for _, pr := range pairs {
		if r.Bool(0.5) {
			pr[0], pr[1] = pr[1], pr[0]
		}
		s.Preds = append(s.Preds, graph.QPred{A: pr[0], B: pr[1]})
	}
	g = graph.MustNewGraph(s, counts)
	density := 0.3 + 0.6*r.Float64()
	for p, q := range s.Preds {
		for a := 0; a < counts[q.A]; a++ {
			for b := 0; b < counts[q.B]; b++ {
				if r.Bool(density) {
					g.SetColor(g.AddEdge(p, a, b, r.Float64()), graph.Color(r.Intn(3)))
				}
			}
		}
	}
	if !r.Bool(0.15) {
		for p := range s.Preds {
			if r.Bool(0.5) {
				preds = append(preds, p)
			}
		}
		r.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	}
	switch r.Intn(3) {
	case 0:
		keep = func(e int) bool { return g.Edge(e).Color == graph.Blue }
	case 1:
		keep = func(e int) bool { return g.Edge(e).Color != graph.Red }
	default:
		truth := make([]bool, g.NumEdges())
		for e := range truth {
			truth[e] = r.Bool(0.6)
		}
		keep = func(e int) bool { return truth[e] }
	}
	return g, preds, keep, fmt.Sprintf("%s %v, %d edges, preds %v", survivorShapes[shape%len(survivorShapes)], s.Preds, g.NumEdges(), preds)
}

// checkSurvivors holds Graph.Survivors to the reference on one trial.
func checkSurvivors(t *testing.T, shape int, r *stats.RNG) {
	t.Helper()
	g, preds, keep, desc := survivorCase(shape, r)
	got := g.Survivors(preds, func(e graph.Edge) bool { return keep(e.ID) })
	want := aliveVertices(g, preds, keep)
	if len(got) != g.NumVertices() {
		t.Fatalf("%s: %d survivor flags for %d vertices", desc, len(got), g.NumVertices())
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d survives = %v, reference says %v", desc, v, got[v], want[v])
		}
	}
}

// TestSurvivorsMatchesReference holds Graph.Survivors to the map-based
// enumerator the tree baselines used to carry, on random structures of
// every shape, random predicate subsets and random colourings.
func TestSurvivorsMatchesReference(t *testing.T) {
	r := stats.NewRNG(42)
	for trial := 0; trial < 3000; trial++ {
		checkSurvivors(t, trial, r)
	}
}

// FuzzSurvivors is TestSurvivorsMatchesReference over fuzzed (shape,
// seed) pairs.
func FuzzSurvivors(f *testing.F) {
	for shape := range survivorShapes {
		f.Add(uint8(shape), uint64(shape+1))
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed uint64) {
		checkSurvivors(t, int(shape), stats.NewRNG(seed))
	})
}

// TestConnectedGroups: Survivors walks each connected group of the
// predicate subset on its own, so a group without an embedding kills
// only its own tables, while a subset joined into one group dies
// whole.
func TestConnectedGroups(t *testing.T) {
	s := &graph.Structure{
		Tables: []string{"A", "B", "C", "D"},
		Preds:  []graph.QPred{{A: 0, B: 1}, {A: 2, B: 3}, {A: 1, B: 2}},
	}
	g := graph.MustNewGraph(s, []int{2, 2, 1, 1})
	g.SetColor(g.AddEdge(0, 0, 0, 0.9), graph.Blue) // a0-b0
	g.SetColor(g.AddEdge(1, 0, 0, 0.9), graph.Red)  // c0-d0
	g.AddEdge(2, 0, 0, 0.9)                         // b0-c0, unanswered
	a0, b0 := g.VertexID(0, 0), g.VertexID(1, 0)
	alive := g.Survivors([]int{1, 0}, blue)
	for v := range alive {
		if want := v == a0 || v == b0; alive[v] != want {
			t.Fatalf("two groups: vertex %d survives = %v, want %v", v, alive[v], want)
		}
	}
	for v, ok := range g.Survivors([]int{0, 1, 2}, blue) {
		if ok {
			t.Fatalf("one group: vertex %d survives, want none", v)
		}
	}
}
