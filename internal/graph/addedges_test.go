package graph_test

import (
	"reflect"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/plan"
	"cdb/internal/stats"
	"cdb/internal/table"
)

// sameGraph requires two graphs over one structure to agree on every
// edge, every adjacency list in order, validity and the component
// partition.
func sameGraph(t *testing.T, ctx string, got, want *graph.Graph) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d edges, want %d", ctx, got.NumEdges(), want.NumEdges())
	}
	for id := 0; id < want.NumEdges(); id++ {
		if got.Edge(id) != want.Edge(id) {
			t.Fatalf("%s: edge %d = %+v, want %+v", ctx, id, got.Edge(id), want.Edge(id))
		}
		if got.IsValid(id) != want.IsValid(id) {
			t.Fatalf("%s: edge %d validity %v, want %v", ctx, id, got.IsValid(id), want.IsValid(id))
		}
	}
	for v := 0; v < want.NumVertices(); v++ {
		for _, pred := range want.TablePreds(want.TableOf(v)) {
			if g, w := got.EdgesAt(v, pred), want.EdgesAt(v, pred); !reflect.DeepEqual(g, w) && len(g)+len(w) > 0 {
				t.Fatalf("%s: EdgesAt(%d, %d) = %v, want %v", ctx, v, pred, g, w)
			}
		}
		if g, w := got.AllEdgesAt(v), want.AllEdgesAt(v); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: AllEdgesAt(%d) = %v, want %v", ctx, v, g, w)
		}
	}
	if g, w := got.ConnectedComponents(), want.ConnectedComponents(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: components %v, want %v", ctx, g, w)
	}
}

// TestAddEdgesMatchesAddEdge: one AddEdges call leaves the graph
// exactly as an AddEdge loop over the same specs does, and edges added
// afterwards — in bulk, from a walker or one at a time — land where the
// loop puts them. Structures and edge lists are the planner generator's
// chain and star cases as BuildPlan instantiates them (itself through a
// walker over each predicate's candidates), plus two statements whose
// candidates are not all sim-join output: a selection listed before the
// joins, and a traditional join, whose edges are born Blue.
func TestAddEdgesMatchesAddEdge(t *testing.T) {
	rng := stats.NewRNG(16)
	check := func(query string, cat *table.Catalog, orc exec.Oracle) *exec.Plan {
		t.Helper()
		stmt, err := cql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		p, err := exec.BuildPlan(stmt.(*cql.Select), cat, orc, exec.DefaultPlanConfig())
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, p.G.NumTables())
		for i := range counts {
			counts[i] = p.G.TupleCount(i)
		}
		specs := make([]graph.EdgeSpec, p.G.NumEdges())
		for id := range specs {
			e := p.G.Edge(id)
			specs[id] = graph.EdgeSpec{Pred: e.Pred, RowA: p.G.RowOf(e.U), RowB: p.G.RowOf(e.V), W: e.W}
		}
		loop := graph.MustNewGraph(p.S, counts)
		addLoop := func(specs []graph.EdgeSpec) {
			for _, sp := range specs {
				loop.AddEdge(sp.Pred, sp.RowA, sp.RowB, sp.W)
			}
		}
		addLoop(specs)
		// paint gives g the colors BuildPlan decided (Blue on "=" edges).
		paint := func(g *graph.Graph) {
			for id := range specs {
				g.SetColor(id, p.G.Edge(id).Color)
			}
		}
		paint(loop)
		sameGraph(t, "BuildPlan", p.G, loop)

		// Split anywhere: AddEdge first, then a bulk call, then a walker
		// that hands the rest over a few at a time, then AddEdge.
		a, b := rng.Intn(len(specs)+1), rng.Intn(len(specs)+1)
		if a > b {
			a, b = b, a
		}
		bulk := graph.MustNewGraph(p.S, counts)
		for _, sp := range specs[:a] {
			bulk.AddEdge(sp.Pred, sp.RowA, sp.RowB, sp.W)
		}
		if first := bulk.AddEdges(specs[a:b]); first != a {
			t.Fatalf("AddEdges returned first id %d, want %d", first, a)
		}
		walks := 0
		first := bulk.AddEdgesFunc(func(yield func(graph.EdgeSpec)) {
			walks++
			for rest := specs[b:]; len(rest) > 0; rest = rest[min(5, len(rest)):] {
				for _, sp := range rest[:min(5, len(rest))] {
					yield(sp)
				}
			}
		})
		if first != b || walks != 2 {
			t.Fatalf("AddEdgesFunc returned first id %d after %d walks, want %d after 2", first, walks, b)
		}
		paint(bulk)
		sameGraph(t, "AddEdge+AddEdges+AddEdgesFunc", bulk, loop)
		if len(specs) > 0 {
			extra := specs[rng.Intn(len(specs))]
			addLoop([]graph.EdgeSpec{extra, extra})
			bulk.AddEdge(extra.Pred, extra.RowA, extra.RowB, extra.W)
			bulk.AddEdges([]graph.EdgeSpec{extra})
			sameGraph(t, "AddEdge after AddEdges", bulk, loop)
		}
		return p
	}
	for trial := 0; trial < 40; trial++ {
		c := plan.RandomCase(rng, 3+trial%4)
		check(c.Query, c.Catalog, exec.ExactOracle{})
	}

	d := dataset.GenAward(dataset.Config{Seed: 1, Scale: 0.12})
	p := check(`SELECT Winner.name FROM Winner, City, Celebrity
		WHERE City.country CROWDEQUAL "USA" AND
		      Celebrity.name CROWDJOIN Winner.name AND
		      Celebrity.birthplace CROWDJOIN City.birthplace;`, d.Catalog, d.Oracle)
	if n := len(p.G.EdgesAt(p.G.VertexID(3, 0), 0)); n == 0 || n == p.G.NumEdges() {
		t.Fatalf("selection first: %d of %d edges on predicate 0's constant", n, p.G.NumEdges())
	}
	p = check(`SELECT Winner.name FROM Winner, City, Celebrity
		WHERE Celebrity.name = Winner.name AND
		      Celebrity.birthplace CROWDJOIN City.birthplace;`, d.Catalog, d.Oracle)
	blue := 0
	for e := 0; e < p.G.NumEdges(); e++ {
		if p.G.Edge(e).Color == graph.Blue {
			blue++
		}
	}
	if blue == 0 || blue == p.G.NumEdges() {
		t.Fatalf("traditional join: %d of %d edges Blue", blue, p.G.NumEdges())
	}
}

// TestAddEdgesRejectsBeforeAdding: a spec out of range panics like
// AddEdge does, and leaves the graph as it was.
func TestAddEdgesRejectsBeforeAdding(t *testing.T) {
	s := &graph.Structure{Tables: []string{"L", "R"}, Preds: []graph.QPred{{A: 0, B: 1}}}
	g := graph.MustNewGraph(s, []int{2, 2})
	for _, bad := range []graph.EdgeSpec{{Pred: 1}, {Pred: -1}, {RowA: 2}, {RowB: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdges(%+v) did not panic", bad)
				}
			}()
			g.AddEdges([]graph.EdgeSpec{{RowA: 1, RowB: 1, W: 0.5}, bad})
		}()
		if g.NumEdges() != 0 || len(g.AllEdgesAt(3)) != 0 {
			t.Fatalf("AddEdges(%+v) added edges before panicking", bad)
		}
	}
}
