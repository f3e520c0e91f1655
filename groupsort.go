package cdb

import (
	"strconv"
	"strings"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/engine"
	"cdb/internal/quality"
)

// applyOrderBy post-processes a SELECT's answer with the crowd-powered
// ORDER BY of §4.2's Remark: a crowd-compared merge sort over the
// ordered column's values. Its crowd work is charged to the answer's
// report, and the per-row confidence and provenance are permuted
// alongside the rows. (GROUP BY runs inside the pipeline.)
func (db *DB) applyOrderBy(s *cql.Select, ans *engine.Answer) error {
	if s.OrderBy == nil {
		return nil
	}
	pos, err := engine.ColumnIndex(ans.Columns, *s.OrderBy)
	if err != nil {
		return err
	}
	values := make([]string, len(ans.Rows))
	for i, r := range ans.Rows {
		values[i] = r[pos]
	}
	perm, tasks, rounds := sortBy(values, naturalLess, db.run.Pool, db.run.Redundancy)
	rep := ans.Report
	asks := tasks * db.run.Redundancy
	rep.Metrics.Tasks += tasks
	rep.Metrics.Rounds += rounds
	rep.Assignments += asks
	rep.HITs += crowd.DefaultPricing.HITs(asks)
	rep.Dollars += crowd.DefaultPricing.Cost(asks)
	sorted := make([][]string, len(perm))
	for i, idx := range perm {
		sorted[i] = ans.Rows[idx]
	}
	ans.Rows = sorted
	if rep.Confidence != nil {
		conf := make([]float64, len(perm))
		for i, idx := range perm {
			conf[i] = rep.Confidence[idx]
		}
		rep.Confidence = conf
	}
	if rep.Provenance != nil {
		prov := make([]AnswerProvenance, len(perm))
		for i, idx := range perm {
			prov[i] = rep.Provenance[idx]
		}
		rep.Provenance = prov
	}
	return nil
}

// sortBy ranks values with crowdsourced pairwise comparisons: a merge
// sort whose comparator asks k workers of pool "is a before b?" and
// majority-votes. truthLess supplies the ground truth. It returns the
// permutation (indices into values, best first) and the comparisons
// (tasks) and merge levels (rounds) it took. A level counts as one
// round under the paper's round model, although the comparisons of one
// merge depend on each other.
func sortBy(values []string, truthLess func(a, b string) bool, pool *crowd.Pool, k int) (perm []int, tasks, rounds int) {
	less := func(a, b int) bool {
		tasks++
		yes := 0
		workers := pool.DistinctArrivals(k)
		for _, w := range workers {
			if w.AnswerBool(truthLess(values[a], values[b])) {
				yes++
			}
		}
		match, _ := quality.Majority(yes, len(workers))
		return match
	}

	perm = make([]int, len(values))
	for i := range perm {
		perm[i] = i
	}
	// Bottom-up merge sort; each level is one crowd round.
	for width := 1; width < len(perm); width *= 2 {
		rounds++
		next := make([]int, 0, len(perm))
		for lo := 0; lo < len(perm); lo += 2 * width {
			mid := min(lo+width, len(perm))
			hi := min(lo+2*width, len(perm))
			next = append(next, merge(perm[lo:mid], perm[mid:hi], less)...)
		}
		perm = next
	}
	return perm, tasks, rounds
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

// naturalLess is the ground-truth comparator the simulated workers
// err around: numeric when both values parse as numbers, otherwise
// case-insensitive lexicographic.
func naturalLess(a, b string) bool {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA == nil && errB == nil {
		return fa < fb
	}
	return strings.ToLower(a) < strings.ToLower(b)
}
