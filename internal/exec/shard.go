package exec

import (
	"sort"

	"cdb/internal/graph"
)

// Component sharding (the cluster layer's partitioning unit).
//
// The graph model never optimizes across connected components: every
// embedding — candidate, answer or ground-truth answer — draws one edge
// per predicate, consecutive predicates in the connected order share a
// table, and the shared table forces a shared vertex, so all of an
// embedding's edges are transitively vertex-connected and lie in ONE
// tuple-level component. Components are therefore a coordination-free
// unit of distribution: executing each component on a different node
// and unioning the answers reproduces the single-node answer set
// exactly, and per-component crowd work never overlaps (equal task
// keys imply shared cell values, which similarity-join instantiation
// connects into one component).
//
// A shard executes the full plan with every component it does not own
// pre-colored red: red edges are invisible to strategies, enumeration
// and answers, so the run does exactly the owned components' work while
// edge ids, predicate order and verdict keys stay globally consistent
// with every other shard building the same statement.

// ComponentKey canonically names one tuple-graph component: the
// lexicographically smallest task key among its member edges. The key
// is a pure function of the statement and the dataset — never of seeds,
// colors or scheduling — so every node derives the same partition.
func componentKey(p *Plan, members []int) string {
	key := ""
	for i, e := range members {
		if k := p.TaskKey(e); i == 0 || k < key {
			key = k
		}
	}
	return key
}

// ComponentKeys returns the canonical key of every component of the
// freshly built plan, sorted. Must be called before execution colors
// the graph (red verdicts dissolve components).
func ComponentKeys(p *Plan) []string {
	comps := p.G.ConnectedComponents()
	keys := make([]string, 0, len(comps))
	for _, members := range comps {
		keys = append(keys, componentKey(p, members))
	}
	sort.Strings(keys)
	return keys
}

// ShardScope records the component restriction applied to a plan: which
// edges belong to owned components, and how the partition split.
type ShardScope struct {
	// Owned flags, per edge id, membership in an owned component.
	Owned []bool
	// OwnedComponents / TotalComponents count the partition.
	OwnedComponents int
	TotalComponents int
}

// RestrictToOwned colors every component whose canonical key the owner
// predicate rejects red, so the subsequent Run executes only the owned
// components. Must run on a freshly built plan. The returned scope
// remembers the owned edge set for truth accounting (the graph itself
// forgets why an edge is red).
func RestrictToOwned(p *Plan, owned func(componentKey string) bool) *ShardScope {
	comps := p.G.ConnectedComponents()
	sc := &ShardScope{
		Owned:           make([]bool, p.G.NumEdges()),
		TotalComponents: len(comps),
	}
	for _, members := range comps {
		if owned(componentKey(p, members)) {
			sc.OwnedComponents++
			for _, e := range members {
				sc.Owned[e] = true
			}
		} else {
			for _, e := range members {
				p.G.SetColor(e, graph.Red)
			}
		}
	}
	return sc
}

// TruthCounts scores the owned slice of the ground truth after a
// restricted run: the number of true answers whose supporting edges all
// lie in owned components, and how many of them the run returned.
// Truth embeddings partition by component exactly like answers do, so
// summing (total, correct) across a disjoint shard cover reproduces the
// single-node |truth| and |answers ∩ truth| — the raw counts a
// coordinator needs to recompute precision and recall bit-identically.
func (sc *ShardScope) TruthCounts(p *Plan) (total, correct int) {
	truth := map[string]bool{}
	p.G.EnumerateEmbeddings(nil,
		func(e graph.Edge) bool { return p.Truth[e.ID] && sc.Owned[e.ID] },
		func(assign, _ []int) bool {
			truth[assignKey(assign)] = true
			return true
		})
	total = len(truth)
	for k := range p.AnswerKeys() {
		if truth[k] {
			correct++
		}
	}
	return total, correct
}

// MergeKeys derives the deterministic merge key of each answer: its
// chosen-edge vector laid out along the connected predicate order.
// Enumeration emits answers in lexicographic merge-key order, and edge
// ids are globally consistent across nodes planning the same statement,
// so sorting the union of per-shard answers by merge key reproduces the
// single-node row order exactly.
func MergeKeys(p *Plan, answers []graph.Embedding) [][]int {
	order := p.G.PredOrder()
	out := make([][]int, len(answers))
	for i, a := range answers {
		key := make([]int, len(order))
		for j, pIdx := range order {
			key[j] = a.Edges[pIdx]
		}
		out[i] = key
	}
	return out
}

// ShardInfo is the per-shard execution sidecar a scatter-gather
// coordinator merges: row merge keys plus the owned slice of the
// ground-truth accounting. Serialized on the cluster wire next to the
// ordinary Result.
type ShardInfo struct {
	// Components / TotalComponents report the partition this run owned.
	Components      int `json:"components"`
	TotalComponents int `json:"total_components"`
	// MergeKeys holds one key per result row, aligned with Rows.
	MergeKeys [][]int `json:"merge_keys,omitempty"`
	// TruthTotal / TruthCorrect are the owned ground-truth counts
	// (see ShardScope.TruthCounts).
	TruthTotal   int `json:"truth_total"`
	TruthCorrect int `json:"truth_correct"`
}
