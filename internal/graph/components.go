package graph

import (
	"sort"
	"sync/atomic"

	"cdb/internal/obs"
)

// Cached edge-component partition. Components connect edges through
// non-red edges sharing a vertex; red edges belong to no component.
// The latency scheduler consults the partition every round (§5.2), and
// the incremental cost engine uses it to bound the region whose
// pruning expectations a round's answers can have changed — so instead
// of re-deriving the partition per round, the graph keeps it cached
// and refreshes only the components a color change touched.
//
// Invalidation rules per color transition:
//   - Unknown↔Blue: the partition is unchanged (both are non-red).
//   - →Red: the edge leaves the partition and may split its component;
//     only that component is re-derived.
//   - Red→ anything: the edge rejoins and may merge components; this
//     never happens on the crowdsourcing path, so it simply forces a
//     full rebuild.
//
// Adding an edge also forces a full rebuild.
//
// Member lists are sorted by construction, never by a sort: a flood only
// stamps compOf and counts, then carveMembers walks a source that is
// already in ascending id order — the split component's old member list
// on a refresh, 0..E on a rebuild — and appends each edge to its
// component's exact-capacity slice of one arena.

var graphUIDCounter uint64

func nextGraphUID() uint64 { return atomic.AddUint64(&graphUIDCounter, 1) }

// Component-cache health metrics: a full rebuild is the O(E) slow
// path; an incremental refresh re-floods only dirtied components. A
// high rebuild:refresh ratio on the crowdsourcing path indicates the
// invalidation rules are being defeated.
var (
	mCompRebuildFull = obs.Default.Counter("cdb_graph_component_rebuild_full_total")
	mCompRefreshIncr = obs.Default.Counter("cdb_graph_component_refresh_incr_total")
	mCompDirtySize   = obs.Default.Histogram("cdb_graph_component_dirty_per_refresh", obs.SizeBuckets)
)

// noteColorChange maintains the component cache across one effective
// color transition. Called by SetColor after the edge is updated.
func (g *Graph) noteColorChange(id int, old, new Color) {
	if !g.compsValid {
		return
	}
	switch {
	case old == Red:
		// Rejoining edge may merge components: rebuild from scratch.
		g.compsValid = false
	case new == Red:
		g.markCompDirty(g.compOf[id])
	default:
		// Unknown↔Blue: partition unchanged.
	}
}

func (g *Graph) markCompDirty(ci int) {
	if ci < 0 || g.compDirtyMark[ci] {
		return
	}
	g.compDirtyMark[ci] = true
	g.compDirty = append(g.compDirty, ci)
}

// ComponentIndex returns the cached component id per edge (-1 for red
// edges) and an exclusive upper bound on component ids (retired ids —
// components split by answers — map to nil member lists). The slice is
// owned by the graph and valid until the next mutation; callers must
// not modify it.
func (g *Graph) ComponentIndex() (compOf []int, numCompIDs int) {
	g.refreshComponents()
	return g.compOf, len(g.compMembers)
}

// ComponentMembers returns the sorted member edge ids of component ci,
// nil when the id is retired. The slice is owned by the graph; callers
// must not modify it.
func (g *Graph) ComponentMembers(ci int) []int {
	g.refreshComponents()
	return g.compMembers[ci]
}

// ConnectedComponents partitions the *edges* into components connected
// through non-red edges sharing a vertex. Red edges are excluded
// entirely (they can no longer interact with any candidate). Used by
// the latency scheduler (§5.2): tasks in different components are
// always non-conflicting. Served from the component cache; members are
// sorted ascending and components ordered by smallest member id.
func (g *Graph) ConnectedComponents() [][]int {
	g.refreshComponents()
	out := make([][]int, 0, len(g.compMembers))
	for _, members := range g.compMembers {
		if members != nil {
			out = append(out, members)
		}
	}
	// Live member lists are sorted and disjoint, so ordering by first
	// member is a strict total order.
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// refreshComponents brings the cache up to date: a full rebuild when
// invalidated wholesale (new edges, rejoined red edges, first use),
// otherwise a re-derivation of just the dirtied components.
func (g *Graph) refreshComponents() {
	if !g.compsValid {
		g.buildComponents()
		return
	}
	if len(g.compDirty) == 0 {
		return
	}
	mCompRefreshIncr.Inc()
	mCompDirtySize.Observe(float64(len(g.compDirty)))
	for _, ci := range g.compDirty {
		members := g.compMembers[ci]
		g.compMembers[ci] = nil
		g.compDirtyMark[ci] = false
		// Unassign the old membership, then re-flood each remaining
		// non-red member. Floods stay inside the old component (two
		// non-red edges sharing a vertex were already connected), so the
		// unassigned sentinel confines them.
		for _, e := range members {
			if g.edges[e].Color == Red {
				g.compOf[e] = -1
			} else {
				g.compOf[e] = compUnassigned
			}
		}
		first := len(g.compMembers)
		for _, e := range members {
			if g.compOf[e] == compUnassigned {
				g.floodComponent(e)
			}
		}
		g.carveMembers(first, members)
	}
	g.compDirty = g.compDirty[:0]
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
	g.compDirtyMark = g.compDirtyMark[:0]
	g.compDirty = g.compDirty[:0]
	for start := range g.edges {
		if g.compOf[start] == compUnassigned {
			g.floodComponent(start)
		}
	}
	g.carveMembers(0, nil)
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
		for _, lst := range g.adj[v] {
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
	g.compDirtyMark = append(g.compDirtyMark, false)
	g.floodCounts = append(g.floodCounts, n)
}

// carveMembers builds the member lists of the components flooded since
// id first (their sizes are in floodCounts) from one arena. src lists,
// in ascending order, every edge those floods could have reached; nil
// stands for all edges.
func (g *Graph) carveMembers(first int, src []int) {
	total := 0
	for _, n := range g.floodCounts {
		total += n
	}
	arena := make([]int, total)
	off := 0
	for k, n := range g.floodCounts {
		g.compMembers[first+k] = arena[off : off : off+n]
		off += n
	}
	g.floodCounts = g.floodCounts[:0]
	place := func(e int) {
		if ci := g.compOf[e]; ci >= first {
			g.compMembers[ci] = append(g.compMembers[ci], e)
		}
	}
	if src == nil {
		for e := range g.edges {
			place(e)
		}
		return
	}
	for _, e := range src {
		place(e)
	}
}
