package cdb

import (
	"fmt"
	"strings"

	"cdb/internal/cql"
	"cdb/internal/quality"
	"cdb/internal/sim"
	"cdb/internal/table"
)

// execFill implements FILL Table.Col: every CNULL cell of the CROWD
// column (restricted by simple equality WHERE conditions on the same
// table) is crowdsourced to up to Redundancy workers. Following §6.3.2,
// collection stops early once the first three answers agree, and the
// final value is the pivot answer (the one most similar to all
// others). Ground truth comes from WithFillTruth; without it the
// column's existing non-null values act as the candidate pool and a
// random one is "true" per row, which still exercises the machinery.
func (db *DB) execFill(s *cql.Fill) (*Result, error) {
	tb, ok := db.catalog.Get(s.Target.Table)
	if !ok {
		return nil, fmt.Errorf("cdb: %w %s", ErrUnknownTable, s.Target.Table)
	}
	col := tb.Schema.ColIndex(s.Target.Column)
	if col < 0 {
		return nil, fmt.Errorf("cdb: table %s has no column %s", s.Target.Table, s.Target.Column)
	}
	if !tb.Schema.Columns[col].Crowd {
		return nil, fmt.Errorf("cdb: column %s is not a CROWD column", s.Target)
	}
	cond, err := compileRowFilter(tb, s.Where)
	if err != nil {
		return nil, err
	}

	// Candidate pool for wrong answers: every distinct non-null value
	// of the column plus the fill truths.
	pool := map[string]bool{}
	for r := 0; r < tb.Len(); r++ {
		if v := tb.Cell(r, col); !v.Null && v.S != "" {
			pool[v.S] = true
		}
	}
	truthOf := func(row int) string {
		if db.cfg.FillTruth != nil {
			return db.cfg.FillTruth(tb.Schema.Name, row, tb.Schema.Columns[col].Name)
		}
		for v := range pool {
			return v // arbitrary but deterministic enough for demos
		}
		return "unknown"
	}

	simFn := func(a, b string) float64 { return sim.Jaccard2Gram(a, b) }
	filled, assignments := 0, 0
	for row := 0; row < tb.Len(); row++ {
		if !tb.Cell(row, col).Null || !cond(row) {
			continue
		}
		if s.Budget > 0 && filled >= s.Budget {
			break
		}
		truth := truthOf(row)
		wrong := make([]string, 0, len(pool))
		for v := range pool {
			if v != truth {
				wrong = append(wrong, v)
			}
		}
		var answers []quality.FillAnswer
		for _, w := range db.run.Pool.DistinctArrivals(db.run.Redundancy) {
			answers = append(answers, quality.FillAnswer{Worker: w.ID, Text: w.AnswerFill(truth, wrong)})
			assignments++
			if len(answers) >= 3 && quality.FillConsistency(answers, simFn) > 0.9 {
				break // early stop: the crowd already agrees
			}
		}
		tb.Rows[row][col] = table.SV(quality.PivotAnswer(answers, simFn))
		filled++
	}
	return &Result{
		Message: fmt.Sprintf("filled %d cells of %s", filled, s.Target),
		Stats:   Stats{Tasks: filled, Assignments: assignments},
	}, nil
}

// execCollect implements COLLECT Table.Col…: workers contribute rows of
// a CROWD table from the hidden universe registered via
// WithCollectUniverse. CDB's autocompletion interface is simulated:
// workers see what has already been collected and usually contribute
// something new, and their contributions are canonicalized (no
// spelling variants pile up). BUDGET bounds the number of questions
// (default: twice the universe).
func (db *DB) execCollect(s *cql.Collect) (*Result, error) {
	tabName := s.Cols[0].Table
	tb, ok := db.catalog.Get(tabName)
	if !ok {
		return nil, fmt.Errorf("cdb: %w %s", ErrUnknownTable, tabName)
	}
	if !tb.Schema.CrowdTable {
		return nil, fmt.Errorf("cdb: %s is not a CROWD table", tabName)
	}
	universe := db.cfg.CollectUniverse[strings.ToLower(tabName)]
	if len(universe) == 0 {
		return nil, fmt.Errorf("cdb: no collect universe registered for %s (use WithCollectUniverse)", tabName)
	}
	primaryCol := tb.Schema.ColIndex(s.Cols[0].Column)
	if primaryCol < 0 {
		return nil, fmt.Errorf("cdb: table %s has no column %s", tabName, s.Cols[0].Column)
	}
	budget := s.Budget
	if budget <= 0 {
		budget = 2 * len(universe)
	}

	collected := map[int]bool{}
	for r := 0; r < tb.Len(); r++ {
		if v := tb.Cell(r, primaryCol); !v.Null {
			for i, item := range universe {
				if v.S == item {
					collected[i] = true
				}
			}
		}
	}
	questions, added := 0, 0
	for questions < budget && len(collected) < len(universe) {
		questions++
		var idx int
		if db.rng.Bool(0.9) && len(collected) > 0 {
			// Autocompletion: the worker sees existing entries and
			// contributes something new.
			remaining := len(universe) - len(collected)
			if remaining == 0 {
				break
			}
			k := db.rng.Intn(remaining)
			for cand := range universe {
				if collected[cand] {
					continue
				}
				if k == 0 {
					idx = cand
					break
				}
				k--
			}
		} else {
			idx = db.rng.Intn(len(universe))
		}
		if collected[idx] {
			continue // duplicate contribution: recognized and discarded
		}
		collected[idx] = true
		row := make(table.Tuple, len(tb.Schema.Columns))
		for i, c := range tb.Schema.Columns {
			if i == primaryCol {
				row[i] = table.SV(universe[idx])
			} else {
				row[i] = table.CNull(c.Kind)
			}
		}
		if err := tb.Append(row); err != nil {
			return nil, err
		}
		added++
	}
	return &Result{
		Message: fmt.Sprintf("collected %d new rows into %s with %d questions", added, tabName, questions),
		Stats:   Stats{Tasks: questions, Assignments: questions},
	}, nil
}

// compileRowFilter turns simple single-table equality predicates into
// a row filter.
func compileRowFilter(tb *table.Table, preds []cql.Predicate) (func(row int) bool, error) {
	type check struct {
		col int
		val string
	}
	var checks []check
	for _, p := range preds {
		if p.Kind != cql.Equal {
			return nil, fmt.Errorf("cdb: FILL/COLLECT WHERE supports only simple equality, got %s", p)
		}
		if p.Left.Table != "" && !strings.EqualFold(p.Left.Table, tb.Schema.Name) {
			return nil, fmt.Errorf("cdb: WHERE references another table: %s", p)
		}
		col := tb.Schema.ColIndex(p.Left.Column)
		if col < 0 {
			return nil, fmt.Errorf("cdb: no column %s", p.Left.Column)
		}
		checks = append(checks, check{col: col, val: p.Value})
	}
	return func(row int) bool {
		for _, c := range checks {
			v := tb.Cell(row, c.col)
			if v.Null || v.String() != c.val {
				return false
			}
		}
		return true
	}, nil
}
