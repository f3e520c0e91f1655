package cdb

import (
	"fmt"
	"strconv"
	"strings"

	"cdb/internal/cql"
	"cdb/internal/engine"
	"cdb/internal/groupsort"
)

// applyGroupSort post-processes a SELECT's answer with the
// crowd-powered GROUP BY / ORDER BY of §4.2's Remark: grouping runs
// crowdsourced entity resolution over the grouped column's (dirty)
// values, ordering runs a crowd-compared merge sort. Both add their
// tasks and rounds to the answer's report, and regroup or permute its
// per-row confidence and provenance alongside the rows.
func (db *DB) applyGroupSort(s *cql.Select, ans *engine.Answer) error {
	rep := ans.Report
	cfg := groupsort.Config{
		Pool:       db.run.Pool,
		Redundancy: db.run.Redundancy,
		Sim:        db.simFunc,
		Epsilon:    db.cfg.Epsilon,
	}
	if s.GroupBy != nil {
		pos, err := projectedColumn(ans.Columns, *s.GroupBy)
		if err != nil {
			return err
		}
		values := columnOf(ans.Rows, pos)
		same := func(a, b string) bool {
			return db.oracle.JoinMatch(s.GroupBy.Table, s.GroupBy.Column,
				s.GroupBy.Table, s.GroupBy.Column, a, b)
		}
		groups, gr := groupsort.GroupBy(values, same, cfg)
		rep.Metrics.Tasks += gr.Tasks
		rep.Metrics.Rounds += gr.Rounds
		rep.Assignments += gr.Tasks * cfg.Redundancy

		// One output row per group: the first member as representative,
		// plus the group size. A group is only as trustworthy as its
		// least-confident member, so confidences fold by min; provenance
		// folds by summing the members' edge counts.
		var rows [][]string
		var conf []float64
		var prov []AnswerProvenance
		for _, g := range groups {
			row := append([]string(nil), ans.Rows[g[0]]...)
			row = append(row, strconv.Itoa(len(g)))
			rows = append(rows, row)
			if rep.Confidence != nil {
				c := rep.Confidence[g[0]]
				for _, idx := range g[1:] {
					if rep.Confidence[idx] < c {
						c = rep.Confidence[idx]
					}
				}
				conf = append(conf, c)
			}
			if rep.Provenance != nil {
				var p AnswerProvenance
				for _, idx := range g {
					p.Crowd += rep.Provenance[idx].Crowd
					p.Inferred += rep.Provenance[idx].Inferred
					p.Prior += rep.Provenance[idx].Prior
				}
				prov = append(prov, p)
			}
		}
		ans.Rows = rows
		if rep.Confidence != nil {
			rep.Confidence = conf
		}
		if rep.Provenance != nil {
			rep.Provenance = prov
		}
		ans.Columns = append(append([]string(nil), ans.Columns...), "group_count")
	}
	if s.OrderBy != nil {
		pos, err := projectedColumn(ans.Columns, *s.OrderBy)
		if err != nil {
			return err
		}
		values := columnOf(ans.Rows, pos)
		perm, sr := groupsort.SortBy(values, naturalLess, cfg)
		rep.Metrics.Tasks += sr.Tasks
		rep.Metrics.Rounds += sr.Rounds
		rep.Assignments += sr.Tasks * cfg.Redundancy
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
	}
	return nil
}

// projectedColumn finds a Table.column reference among the projected
// columns.
func projectedColumn(columns []string, ref cql.ColRef) (int, error) {
	want := strings.ToLower(ref.String())
	for i, c := range columns {
		if strings.ToLower(c) == want {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cdb: GROUP/ORDER BY column %s must appear in the projection (have %v)", ref, columns)
}

func columnOf(rows [][]string, pos int) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[pos]
	}
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
