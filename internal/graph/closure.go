package graph

import "cdb/internal/obs"

// The transitive closure of crowd answers. Answers about value
// equality are transitive within one predicate: once the crowd confirms
// A=B and B=C, A=C holds, and A=B with B≠C gives A≠C (Wang et al.'s
// transitive relations for crowdsourced joins). The Closure
// maintains, per predicate, a union-find over the endpoints of Blue
// edges plus a cluster-pair Red relation, and answers "is this
// uncolored edge's label already entailed?" in near-constant time.
//
// Two callers use it: GROUP BY (internal/engine), which reads its
// groups off the clusters of a value plan's answers, and the ER
// baselines Trans and ACD (internal/baselines), which skip the pairs
// their earlier answers entail.
//
// Scope: inference never crosses predicates. Two predicates compare
// different column pairs, so a vertex (tuple) participates in one
// equivalence relation per incident predicate; the overlay keys its
// union-find nodes by (predicate, vertex).
//
// Consistency model: the overlay is fed by the graph's ColorEvent
// journal. On the crowdsourcing path every transition is
// Unknown→{Blue,Red} and the overlay absorbs the suffix incrementally;
// any reverse transition (recoloring, Unknown-ing) cannot be expressed
// by a union-find, so Update falls back to a full rebuild from the
// current edge colors. Either way the clusters are a pure function of
// the journal (and of any Assume facts) — replaying it yields the same
// entailments in the same order (the property tests in closure_test.go
// enforce replay identity).

// Closure health metrics: rebuilds are the O(E) slow path; conflicts
// count crowd answers that contradict the closure (a Red edge inside a
// Blue cluster, or a Blue edge across an entailed-Red cluster pair).
var (
	mClosureRebuild  = obs.Default.Counter("cdb_graph_closure_rebuild_total")
	mClosureConflict = obs.Default.Counter("cdb_graph_closure_conflict_total")
)

// Closure is the transitive closure overlay over one graph's crowd
// colors. Not safe for concurrent use: methods mutate internal state
// (journal cursor, path compression). One Closure serves one
// execution.
type Closure struct {
	g *Graph

	cursor int // ColorEvents consumed so far

	// Union-find over (predicate, vertex) nodes, built lazily on first
	// Update.
	parent []int
	size   []int

	// red[rootA][rootB] marks Red evidence between the two clusters;
	// symmetric.
	red map[int]map[int]bool

	// assumed holds the facts Assume supplied, replayed on every reset.
	assumed []assumption

	conflicts int
	rebuilds  int
}

// assumption is one assumed label between two (pred, vertex) nodes.
type assumption struct {
	pred, u, v int
	col        Color
}

// NewClosure creates an empty overlay for g. Call Update to absorb the
// journal (including colors applied before creation, e.g. the exact
// equi-join edges pre-colored at plan build).
func NewClosure(g *Graph) *Closure {
	return &Closure{g: g, red: make(map[int]map[int]bool)}
}

// Update brings the overlay up to date with the graph's color journal:
// the unconsumed suffix is absorbed incrementally when every
// transition starts from Unknown, otherwise the overlay is rebuilt
// from the current edge colors. Idempotent; call before Entails or
// ClusterRoot after any round of coloring.
func (c *Closure) Update() {
	events := c.g.ColorEvents()
	if c.parent == nil {
		// First use: build the identity partition, then absorb the whole
		// journal below (not counted as a rebuild — there is nothing to
		// re-do yet).
		c.resetNodes()
	} else if c.cursor > len(events) {
		c.rebuild(len(events))
		return
	}
	for _, ev := range events[c.cursor:] {
		if ev.Old != Unknown || ev.New == Unknown {
			c.rebuild(len(events))
			return
		}
	}
	for _, ev := range events[c.cursor:] {
		c.observe(ev.Edge, ev.New)
	}
	c.cursor = len(events)
}

// rebuild reconstructs the overlay from the current edge colors (which
// are themselves the fold of the journal, so the result is still a
// pure function of it).
func (c *Closure) rebuild(cursor int) {
	c.rebuilds++
	mClosureRebuild.Inc()
	c.resetNodes()
	for id := range c.g.edges {
		if col := c.g.edges[id].Color; col != Unknown {
			c.observe(id, col)
		}
	}
	c.cursor = cursor
}

// resetNodes restores the identity partition (every (pred, vertex)
// node its own singleton cluster, no red links).
func (c *Closure) resetNodes() {
	nodes := len(c.g.S.Preds) * c.g.nVerts
	if len(c.parent) != nodes {
		c.parent = make([]int, nodes)
		c.size = make([]int, nodes)
	}
	for i := range c.parent {
		c.parent[i] = i
		c.size[i] = 1
	}
	c.red = make(map[int]map[int]bool)
	c.conflicts = 0
	c.cursor = 0
	for _, f := range c.assumed {
		c.fold(f.pred, f.u, f.v, f.col)
	}
}

// Assume folds in a label the graph holds no
// edge for: u and v, two vertices under pred, match or not. The ER
// baselines assume their within-side dedup answers this way. Every
// reset replays the assumptions, so the overlay stays a pure function
// of the journal and them.
func (c *Closure) Assume(pred, u, v int, match bool) {
	f := assumption{pred: pred, u: u, v: v, col: Red}
	if match {
		f.col = Blue
	}
	c.assumed = append(c.assumed, f)
	if c.parent != nil {
		c.fold(f.pred, f.u, f.v, f.col)
	}
}

// observe folds one colored edge into the overlay.
func (c *Closure) observe(id int, col Color) {
	e := c.g.edges[id]
	c.fold(e.Pred, e.U, e.V, col)
}

// fold merges the clusters of u and v under pred on Blue evidence, or
// links them on Red.
func (c *Closure) fold(pred, u, v int, col Color) {
	a, b := c.node(pred, u), c.node(pred, v)
	switch col {
	case Blue:
		c.union(a, b)
	case Red:
		c.markRed(a, b)
	}
}

// Entails reports whether the (uncolored) edge's label is already
// determined by the closure: Blue when its endpoints share a cluster,
// Red when their clusters are linked by a Red edge. Colored edges
// report no entailment.
func (c *Closure) Entails(id int) (Color, bool) {
	e := c.g.edges[id]
	if e.Color != Unknown || c.parent == nil {
		return Unknown, false
	}
	ra := c.find(c.node(e.Pred, e.U))
	rb := c.find(c.node(e.Pred, e.V))
	if ra == rb {
		return Blue, true
	}
	if c.red[ra][rb] {
		return Red, true
	}
	return Unknown, false
}

// ClusterRoot returns a canonical id for v's equivalence cluster under
// pred: two vertices share a cluster iff their roots are equal. The
// lookup path-compresses the shared union-find, so callers must not
// race Update or concurrent lookups.
func (c *Closure) ClusterRoot(pred, v int) int {
	if c.parent == nil {
		return c.node(pred, v)
	}
	return c.find(c.node(pred, v))
}

// Conflicts counts crowd answers that contradicted the closure since
// the last rebuild (Red inside a cluster, Blue across a Red pair). The
// direct answer wins — the overlay drops the entailment — but a high
// count means worker error rates are undermining the closure.
func (c *Closure) Conflicts() int { return c.conflicts }

func (c *Closure) node(pred, v int) int { return pred*c.g.nVerts + v }

func (c *Closure) find(x int) int {
	root := x
	for c.parent[root] != root {
		root = c.parent[root]
	}
	for c.parent[x] != root {
		c.parent[x], x = root, c.parent[x]
	}
	return root
}

// union merges the clusters of a and b on Blue evidence. Union by
// size, ties to the smaller root id; the merged outcome (members, red
// links, conflict count) is independent of map iteration order because
// re-keying a red link is idempotent.
func (c *Closure) union(a, b int) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	// A Blue edge across an entailed-Red cluster pair: the direct
	// answer wins, the red link is dropped.
	if c.red[ra][rb] {
		c.noteConflict()
		c.unlinkRed(ra, rb)
	}
	if c.size[ra] < c.size[rb] || (c.size[ra] == c.size[rb] && rb < ra) {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	c.size[ra] += c.size[rb]
	// Re-key the absorbed root's red links to the surviving root.
	if m := c.red[rb]; m != nil {
		delete(c.red, rb)
		for p := range m {
			delete(c.red[p], rb)
			if len(c.red[p]) == 0 {
				delete(c.red, p)
			}
			if p == ra {
				// Cannot happen (the ra–rb link was unlinked above), but a
				// self red link would corrupt Entails; drop it defensively.
				c.noteConflict()
				continue
			}
			c.linkRed(ra, p)
		}
	}
}

// markRed records Red evidence between the clusters of a and b.
func (c *Closure) markRed(a, b int) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		// A Red edge inside a Blue cluster: the cluster stands (splitting
		// would discard confirmed answers), the contradiction is counted.
		c.noteConflict()
		return
	}
	c.linkRed(ra, rb)
}

// linkRed installs the symmetric red link ra↔rb.
func (c *Closure) linkRed(ra, rb int) {
	for _, pair := range [2][2]int{{ra, rb}, {rb, ra}} {
		m := c.red[pair[0]]
		if m == nil {
			m = make(map[int]bool)
			c.red[pair[0]] = m
		}
		m[pair[1]] = true
	}
}

func (c *Closure) unlinkRed(ra, rb int) {
	delete(c.red[ra], rb)
	if len(c.red[ra]) == 0 {
		delete(c.red, ra)
	}
	delete(c.red[rb], ra)
	if len(c.red[rb]) == 0 {
		delete(c.red, rb)
	}
}

func (c *Closure) noteConflict() {
	c.conflicts++
	mClosureConflict.Inc()
}
