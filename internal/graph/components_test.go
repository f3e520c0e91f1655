package graph

import (
	"testing"

	"cdb/internal/stats"
)

// naivePartition computes the edge-component partition from scratch
// with union-find — deliberately a different algorithm from the cached
// flood fill, so the property tests cross-check implementations.
func naivePartition(g *Graph) []int {
	parent := make([]int, g.NumEdges())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for v := 0; v < g.NumVertices(); v++ {
		first := -1
		for _, e := range g.AllEdgesAt(v) {
			if g.edges[e].Color == Red {
				continue
			}
			if first < 0 {
				first = e
			} else {
				union(first, e)
			}
		}
	}
	out := make([]int, g.NumEdges())
	for i := range out {
		if g.edges[i].Color == Red {
			out[i] = -1
		} else {
			out[i] = find(i)
		}
	}
	return out
}

// samePartition checks that two component labelings induce the same
// equivalence classes (labels themselves may differ).
func samePartition(t *testing.T, got, want []int, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: labeling lengths %d vs %d", ctx, len(got), len(want))
	}
	remap := map[int]int{}
	seen := map[int]bool{}
	for i := range got {
		if (got[i] < 0) != (want[i] < 0) {
			t.Fatalf("%s: edge %d red-membership mismatch: got %d want %d", ctx, i, got[i], want[i])
		}
		if got[i] < 0 {
			continue
		}
		if m, ok := remap[got[i]]; ok {
			if m != want[i] {
				t.Fatalf("%s: edge %d: component %d maps to both %d and %d", ctx, i, got[i], m, want[i])
			}
		} else {
			if seen[want[i]] {
				t.Fatalf("%s: edge %d: naive component %d claimed by two cached components", ctx, i, want[i])
			}
			remap[got[i]] = want[i]
			seen[want[i]] = true
		}
	}
}

// hubGraph builds a chain A–B–C whose B side has two hub tuples joined
// to 30 tuples on either side (some shared between the hubs) — the
// shape where flooding edge by edge rescans a hub's adjacency once per
// incident edge.
func hubGraph(r *stats.RNG) *Graph {
	s := &Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := MustNewGraph(s, []int{40, 2, 40})
	for hub := 0; hub < 2; hub++ {
		for i := 0; i < 30; i++ {
			g.AddEdge(0, r.Intn(40), hub, 0.5)
			g.AddEdge(1, hub, r.Intn(40), 0.5)
		}
	}
	return g
}

// TestComponentIndexIncremental colors random graphs (every tenth one
// a high-degree hub graph) edge by edge and checks after every
// transition that the cached partition — kept across Unknown↔Blue,
// rebuilt after anything touching Red — matches a from-scratch
// union-find.
func TestComponentIndexIncremental(t *testing.T) {
	r := stats.NewRNG(31337)
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(r)
		if trial%10 == 9 {
			g = hubGraph(r)
		}
		compOf, _ := g.ComponentIndex()
		samePartition(t, compOf, naivePartition(g), "initial")
		for step := 0; step < 2*g.NumEdges(); step++ {
			e := r.Intn(g.NumEdges())
			switch r.Intn(3) {
			case 0:
				g.SetColor(e, Red)
			case 1:
				g.SetColor(e, Blue)
			case 2:
				g.SetColor(e, Unknown) // leaves Red: the edge rejoins, components may merge
			}
			compOf, _ = g.ComponentIndex()
			samePartition(t, compOf, naivePartition(g), "after step")
		}
	}
}

// giantComponent builds a chain A–B–C where every tuple's edges reach
// the next tuple's, so the whole edge set is one component that Red
// answers split over and over.
func giantComponent(n int) *Graph {
	s := &Structure{
		Tables: []string{"A", "B", "C"},
		Preds:  []QPred{{A: 0, B: 1}, {A: 1, B: 2}},
	}
	g := MustNewGraph(s, []int{n, n, n})
	for i := 0; i < n; i++ {
		for p := 0; p < 2; p++ {
			g.AddEdge(p, i, i, 0.5)
			g.AddEdge(p, i, (i+1)%n, 0.5)
		}
	}
	return g
}

// checkMembers verifies that the member lists agree with the index,
// cover exactly the non-red edges, are strictly ascending, and that
// component ids are dense (no id without members).
func checkMembers(t *testing.T, g *Graph) {
	t.Helper()
	compOf, n := g.ComponentIndex()
	counted := 0
	for ci := 0; ci < n; ci++ {
		members := g.compMembers[ci]
		if len(members) == 0 {
			t.Fatalf("comp %d of %d has no members", ci, n)
		}
		for k, e := range members {
			if compOf[e] != ci {
				t.Fatalf("member %d of comp %d has compOf %d", e, ci, compOf[e])
			}
			if k > 0 && members[k-1] >= e {
				t.Fatalf("comp %d members not strictly sorted: %v", ci, members)
			}
		}
		if cap(members) != len(members) {
			t.Fatalf("comp %d: list of %d carved at capacity %d", ci, len(members), cap(members))
		}
		counted += len(members)
	}
	nonRed := 0
	for e := 0; e < g.NumEdges(); e++ {
		if g.Edge(e).Color != Red {
			nonRed++
		}
	}
	if counted != nonRed {
		t.Fatalf("members cover %d edges, want %d non-red", counted, nonRed)
	}
}

// TestComponentMembersConsistent checks the member lists after the
// initial build and after every split by a Red, on random graphs, a hub
// graph and one giant component: nothing sorts them, so ascending order
// has to come out of how they are carved.
func TestComponentMembersConsistent(t *testing.T) {
	r := stats.NewRNG(99)
	for trial := 0; trial < 52; trial++ {
		g := randomGraph(r)
		switch trial {
		case 50:
			g = hubGraph(r)
		case 51:
			g = giantComponent(40)
		}
		checkMembers(t, g)
		for i := 0; i < g.NumEdges()/2; i++ {
			g.SetColor(r.Intn(g.NumEdges()), Red)
			checkMembers(t, g)
		}
	}
}

// TestComponentRefreshAllocs holds the rebuild after a Red to one
// allocation — the arena the member lists are carved from — however
// many pieces the split leaves: the index slice and the flood scratch
// are reused.
func TestComponentRefreshAllocs(t *testing.T) {
	g := giantComponent(400)
	compOf, _ := g.ComponentIndex()
	r := stats.NewRNG(5)
	allocs := testing.AllocsPerRun(200, func() {
		for {
			if e := r.Intn(g.NumEdges()); g.Edge(e).Color != Red {
				g.SetColor(e, Red)
				break
			}
		}
		g.ComponentIndex()
	})
	if allocs > 1 {
		t.Fatalf("rebuild after a Red: %.0f allocations, want 1", allocs)
	}
	if after, _ := g.ComponentIndex(); &after[0] != &compOf[0] {
		t.Fatal("rebuild reallocated the component index")
	}
}

// TestColorEventsJournal checks the journal records exactly the
// effective transitions.
func TestColorEventsJournal(t *testing.T) {
	g := buildSmall()
	if len(g.ColorEvents()) != 0 {
		t.Fatal("fresh graph has events")
	}
	g.SetColor(0, Blue)
	g.SetColor(0, Blue) // no-op
	g.SetColor(3, Red)
	g.SetColor(0, Red)
	ev := g.ColorEvents()
	want := []ColorEvent{
		{Edge: 0, Old: Unknown, New: Blue},
		{Edge: 3, Old: Unknown, New: Red},
		{Edge: 0, Old: Blue, New: Red},
	}
	if len(ev) != len(want) {
		t.Fatalf("journal = %v, want %v", ev, want)
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Fatalf("journal[%d] = %v, want %v", i, ev[i], want[i])
		}
	}
}
