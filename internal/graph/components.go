package graph

import (
	"slices"

	"cdb/internal/obs"
)

// Cached edge-component partition. Components connect edges through
// non-red edges sharing a vertex; red edges belong to no component.
// Nothing on the round path of a tree-shaped plan reads it — the packed
// scheduler tests conflicts through cover facts and a rescore is full —
// so it is not maintained across answers: its reader is ConflictIndex on
// cyclic structures, and the first read after an invalidating change
// rebuilds it.
//
// Invalidation rules:
//   - Unknown↔Blue: the partition is unchanged (both are non-red).
//   - any transition into or out of Red, AddEdge, AddEdges: invalid.
//
// Member lists are sorted by construction, never by a sort: a flood only
// stamps compOf and counts, then carveMembers walks the edges in id
// order and appends each to its component's exact-capacity slice of one
// arena. Floods start from edges in id order too, so component ids are
// dense and ordered by smallest member.

// mCompRebuildFull counts partition rebuilds, each O(E). It should stay
// flat across the rounds of a tree-shaped plan.
var mCompRebuildFull = obs.Default.Counter("cdb_graph_component_rebuild_full_total")

// noteColorChange invalidates the component cache when a color
// transition moves an edge into or out of the partition. Called by
// SetColor after the edge is updated.
func (g *Graph) noteColorChange(old, new Color) {
	if old == Red || new == Red {
		g.compsValid = false
	}
}

// ComponentIndex returns the component id per edge (-1 for red edges)
// and the number of components. The slice is owned by the graph and
// valid until the next mutation; callers must not modify it.
func (g *Graph) ComponentIndex() (compOf []int, numComps int) {
	g.ensureComponents()
	return g.compOf, len(g.compMembers)
}

// ConnectedComponents partitions the *edges* into components connected
// through non-red edges sharing a vertex. Red edges are excluded
// entirely (they can no longer interact with any candidate). Tasks in
// different components never conflict (§5.2). Served from the component
// cache; members are sorted ascending and components ordered by smallest
// member id.
func (g *Graph) ConnectedComponents() [][]int {
	g.ensureComponents()
	return slices.Clone(g.compMembers)
}

// ensureComponents rebuilds the partition if a change invalidated it.
func (g *Graph) ensureComponents() {
	if !g.compsValid {
		g.buildComponents()
	}
}

const compUnassigned = -2

// buildComponents recomputes the whole partition.
func (g *Graph) buildComponents() {
	mCompRebuildFull.Inc()
	if len(g.compOf) != len(g.edges) {
		g.compOf = make([]int, len(g.edges))
	}
	for i := range g.compOf {
		if g.edges[i].Color == Red {
			g.compOf[i] = -1
		} else {
			g.compOf[i] = compUnassigned
		}
	}
	g.compMembers = g.compMembers[:0]
	for start := range g.edges {
		if g.compOf[start] == compUnassigned {
			g.floodComponent(start)
		}
	}
	g.carveMembers()
	g.compsValid = true
}

// floodComponent assigns a fresh component id to every unassigned
// non-red edge reachable from start and records how many it reached;
// carveMembers turns the counts into member lists. The flood moves
// tuple to tuple, scanning each tuple's adjacency once (an epoch stamp
// marks the visited ones), so a component costs the sum of its tuples'
// degrees rather than of their squares.
func (g *Graph) floodComponent(start int) {
	id := len(g.compMembers)
	if len(g.floodStamp) != g.nVerts {
		g.floodStamp = make([]int, g.nVerts)
		g.floodEpoch = 0
	}
	g.floodEpoch++
	epoch := g.floodEpoch
	n := 1
	g.compOf[start] = id
	e := &g.edges[start]
	g.floodStamp[e.U], g.floodStamp[e.V] = epoch, epoch
	stack := append(g.floodStack[:0], e.U, e.V)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		first, slots := g.firstList(v)
		for _, lst := range g.lists[first : first+slots] {
			for _, nb := range lst {
				if g.compOf[nb] != compUnassigned {
					continue
				}
				g.compOf[nb] = id
				n++
				w := g.edges[nb].U
				if w == v {
					w = g.edges[nb].V
				}
				if g.floodStamp[w] != epoch {
					g.floodStamp[w] = epoch
					stack = append(stack, w)
				}
			}
		}
	}
	g.floodStack = stack[:0]
	g.compMembers = append(g.compMembers, nil)
	g.floodCounts = append(g.floodCounts, n)
}

// carveMembers builds the member lists of the flooded components (their
// sizes are in floodCounts) from one arena, in ascending edge order.
func (g *Graph) carveMembers() {
	total := 0
	for _, n := range g.floodCounts {
		total += n
	}
	arena := make([]int, total)
	off := 0
	for ci, n := range g.floodCounts {
		g.compMembers[ci] = arena[off : off : off+n]
		off += n
	}
	g.floodCounts = g.floodCounts[:0]
	for e, ci := range g.compOf {
		if ci >= 0 {
			g.compMembers[ci] = append(g.compMembers[ci], e)
		}
	}
}
