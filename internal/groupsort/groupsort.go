// Package groupsort implements the crowd-powered group and sort
// operations the paper's §4.2 Remark delegates to prior work: after
// the crowd-based selections and joins produce result rows, GROUP BY
// clusters a column's dirty values with crowdsourced entity resolution
// (pairwise match tasks plus transitivity, as in [57, 13]) and ORDER
// BY ranks values with crowdsourced pairwise comparisons (merge sort
// over a majority-voted crowd comparator, as in [42, 14]).
package groupsort

import (
	"sort"

	"cdb/internal/crowd"
	"cdb/internal/quality"
	"cdb/internal/sim"
)

// Config bundles the crowd and similarity settings for both
// operations.
type Config struct {
	// Pool supplies workers. Required.
	Pool *crowd.Pool
	// Redundancy is the answers per task (default 5).
	Redundancy int
	// Sim estimates candidate-pair similarity for grouping (default
	// 2-gram Jaccard).
	Sim sim.Func
	// Epsilon prunes group-candidate pairs below this similarity
	// (default 0.3) — pairs under it are assumed distinct for free.
	Epsilon float64
}

func (c *Config) defaults() {
	if c.Redundancy <= 0 {
		c.Redundancy = 5
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.3
	}
}

// Result reports the crowd effort an operation consumed.
type Result struct {
	Tasks  int
	Rounds int
}

// GroupBy clusters values into groups of the same real-world entity.
// truthSame supplies the ground truth for the simulated workers.
// Returned groups hold indices into values; singleton groups included.
//
// The algorithm is transitivity-aware crowdsourced ER: candidate pairs
// (similarity >= epsilon) are asked in descending-similarity waves of
// cluster-disjoint pairs; answers merge clusters or record non-match
// constraints, and later pairs whose outcome is implied are never
// asked.
func GroupBy(values []string, truthSame func(a, b string) bool, cfg Config) ([][]int, Result) {
	cfg.defaults()
	n := len(values)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	nonMatch := map[[2]int]bool{}
	norm := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		parent[ra] = rb
		for key := range nonMatch {
			if key[0] == ra || key[1] == ra {
				x, y := key[0], key[1]
				if x == ra {
					x = rb
				}
				if y == ra {
					y = rb
				}
				delete(nonMatch, key)
				nonMatch[norm(x, y)] = true
			}
		}
	}

	type pair struct {
		a, b int
		s    float64
	}
	var pending []pair
	simF := cfg.Sim
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s := sim.Similarity(simF, values[i], values[j]); s >= cfg.Epsilon {
				pending = append(pending, pair{a: i, b: j, s: s})
			}
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].s != pending[j].s {
			return pending[i].s > pending[j].s
		}
		if pending[i].a != pending[j].a {
			return pending[i].a < pending[j].a
		}
		return pending[i].b < pending[j].b
	})

	res := Result{}
	askMatch := func(a, b int) bool {
		res.Tasks++
		yes := 0
		workers := cfg.Pool.DistinctArrivals(cfg.Redundancy)
		for _, w := range workers {
			if w.AnswerBool(truthSame(values[a], values[b])) {
				yes++
			}
		}
		match, _ := quality.Majority(yes, len(workers))
		return match
	}

	for len(pending) > 0 {
		// One wave: cluster-disjoint, non-deducible pairs.
		busy := map[int]bool{}
		var wave []pair
		rest := pending[:0]
		for _, p := range pending {
			ra, rb := find(p.a), find(p.b)
			if ra == rb || nonMatch[norm(ra, rb)] {
				continue // deduced
			}
			if busy[ra] || busy[rb] {
				rest = append(rest, p)
				continue
			}
			busy[ra], busy[rb] = true, true
			wave = append(wave, p)
		}
		pending = append([]pair(nil), rest...)
		if len(wave) == 0 {
			break
		}
		res.Rounds++
		for _, p := range wave {
			if askMatch(p.a, p.b) {
				union(p.a, p.b)
			} else {
				nonMatch[norm(find(p.a), find(p.b))] = true
			}
		}
	}

	byRoot := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	groups := make([][]int, 0, len(byRoot))
	for _, g := range byRoot {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups, res
}

// SortBy ranks values with crowdsourced pairwise comparisons: a merge
// sort whose comparator asks Redundancy workers "is a before b?" and
// majority-votes. truthLess supplies the ground truth. It returns the
// permutation (indices into values, best first). Comparisons within
// one merge level are independent, so rounds ≈ ceil(log2 n) under the
// paper's round model.
func SortBy(values []string, truthLess func(a, b string) bool, cfg Config) ([]int, Result) {
	cfg.defaults()
	res := Result{}
	less := func(a, b int) bool {
		res.Tasks++
		yes := 0
		workers := cfg.Pool.DistinctArrivals(cfg.Redundancy)
		for _, w := range workers {
			if w.AnswerBool(truthLess(values[a], values[b])) {
				yes++
			}
		}
		match, _ := quality.Majority(yes, len(workers))
		return match
	}

	perm := make([]int, len(values))
	for i := range perm {
		perm[i] = i
	}
	// Bottom-up merge sort; each level is one crowd round.
	for width := 1; width < len(perm); width *= 2 {
		res.Rounds++
		next := make([]int, 0, len(perm))
		for lo := 0; lo < len(perm); lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > len(perm) {
				mid = len(perm)
			}
			if hi > len(perm) {
				hi = len(perm)
			}
			next = append(next, merge(perm[lo:mid], perm[mid:hi], less)...)
		}
		perm = next
	}
	return perm, res
}

func merge(a, b []int, less func(x, y int) bool) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(a[i], b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
