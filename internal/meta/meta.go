// Package meta implements CDB's metadata store (§2.1): relational
// tables recording every crowdsourced task, every worker the system
// has seen, and every task-to-worker assignment with its answer. The
// paper keeps these in the same relational engine as user data; we do
// the same, building the three tables on the internal/table substrate
// so they can be inspected with Dump, exported as CSV, or joined in
// analyses. The store also derives the statistics CDB feeds back into
// optimization (per-worker accuracy, per-predicate selectivity).
package meta

import (
	"fmt"
	"io"
	"sort"

	"cdb/internal/table"
)

// Store holds the three metadata relations.
type Store struct {
	tasks       *table.Table
	workers     *table.Table
	assignments *table.Table

	workerSeen map[int]int // worker id -> row in workers table
	nextTask   int
}

// TaskKind labels what a recorded task asked.
type TaskKind string

// Task kinds.
const (
	TaskJoin      TaskKind = "join"
	TaskSelection TaskKind = "selection"
	TaskCompare   TaskKind = "compare"
	TaskFill      TaskKind = "fill"
	TaskCollect   TaskKind = "collect"
)

// NewStore creates an empty metadata store.
func NewStore() *Store {
	s := &Store{workerSeen: map[int]int{}}
	s.tasks = table.New(table.Schema{Name: "cdb_tasks", Columns: []table.Column{
		{Name: "task_id", Kind: table.Int},
		{Name: "kind", Kind: table.String},
		{Name: "predicate", Kind: table.String},
		{Name: "left_value", Kind: table.String},
		{Name: "right_value", Kind: table.String},
		{Name: "verdict", Kind: table.String}, // "", "match", "nonmatch"
		{Name: "round", Kind: table.Int},
	}})
	s.workers = table.New(table.Schema{Name: "cdb_workers", Columns: []table.Column{
		{Name: "worker_id", Kind: table.Int},
		{Name: "answered", Kind: table.Int},
		{Name: "estimated_quality", Kind: table.Float},
	}})
	s.assignments = table.New(table.Schema{Name: "cdb_assignments", Columns: []table.Column{
		{Name: "task_id", Kind: table.Int},
		{Name: "worker_id", Kind: table.Int},
		{Name: "answer", Kind: table.String},
	}})
	return s
}

// RecordTask registers a crowdsourced task and returns its id.
func (s *Store) RecordTask(kind TaskKind, predicate, left, right string, round int) int {
	id := s.nextTask
	s.nextTask++
	s.tasks.MustAppend(table.Tuple{
		table.IV(int64(id)), table.SV(string(kind)), table.SV(predicate),
		table.SV(left), table.SV(right), table.SV(""), table.IV(int64(round)),
	})
	return id
}

// RecordAssignment registers one worker answer for a task.
func (s *Store) RecordAssignment(taskID, workerID int, answer string) {
	s.assignments.MustAppend(table.Tuple{
		table.IV(int64(taskID)), table.IV(int64(workerID)), table.SV(answer),
	})
	row, seen := s.workerSeen[workerID]
	if !seen {
		row = s.workers.Len()
		s.workerSeen[workerID] = row
		s.workers.MustAppend(table.Tuple{
			table.IV(int64(workerID)), table.IV(0), table.FV(0.7),
		})
	}
	cnt := s.workers.Rows[row][1].I
	s.workers.Rows[row][1] = table.IV(cnt + 1)
}

// RecordVerdict stores the inferred truth of a task.
func (s *Store) RecordVerdict(taskID int, match bool) error {
	if taskID < 0 || taskID >= s.tasks.Len() {
		return fmt.Errorf("meta: unknown task %d", taskID)
	}
	v := "nonmatch"
	if match {
		v = "match"
	}
	s.tasks.Rows[taskID][5] = table.SV(v)
	return nil
}

// UpdateWorkerQuality stores the latest EM estimate for a worker.
func (s *Store) UpdateWorkerQuality(workerID int, quality float64) {
	row, seen := s.workerSeen[workerID]
	if !seen {
		row = s.workers.Len()
		s.workerSeen[workerID] = row
		s.workers.MustAppend(table.Tuple{
			table.IV(int64(workerID)), table.IV(0), table.FV(quality),
		})
		return
	}
	s.workers.Rows[row][2] = table.FV(quality)
}

// Tasks returns the task relation (live reference).
func (s *Store) Tasks() *table.Table { return s.tasks }

// Workers returns the worker relation (live reference).
func (s *Store) Workers() *table.Table { return s.workers }

// Assignments returns the assignment relation (live reference).
func (s *Store) Assignments() *table.Table { return s.assignments }

// Stats aggregates the statistics §2.1 says CDB maintains for the
// optimizer.
type Stats struct {
	Tasks         int
	Assignments   int
	Workers       int
	MatchRate     float64            // fraction of decided tasks that matched
	PerPredicate  map[string]int     // tasks per predicate label
	PerKind       map[TaskKind]int   // tasks per task kind
	WorkerAnswers map[int]int        // answers per worker
	Selectivity   map[string]float64 // per-predicate match rate
}

// ComputeStats derives the summary statistics from the relations.
func (s *Store) ComputeStats() Stats {
	st := Stats{
		Tasks:         s.tasks.Len(),
		Assignments:   s.assignments.Len(),
		Workers:       s.workers.Len(),
		PerPredicate:  map[string]int{},
		PerKind:       map[TaskKind]int{},
		WorkerAnswers: map[int]int{},
		Selectivity:   map[string]float64{},
	}
	decided, matched := 0, 0
	predMatch := map[string]int{}
	predDecided := map[string]int{}
	for _, row := range s.tasks.Rows {
		pred := row[2].S
		st.PerPredicate[pred]++
		st.PerKind[TaskKind(row[1].S)]++
		switch row[5].S {
		case "match":
			decided++
			matched++
			predMatch[pred]++
			predDecided[pred]++
		case "nonmatch":
			decided++
			predDecided[pred]++
		}
	}
	if decided > 0 {
		st.MatchRate = float64(matched) / float64(decided)
	}
	for pred, d := range predDecided {
		if d > 0 {
			st.Selectivity[pred] = float64(predMatch[pred]) / float64(d)
		}
	}
	for _, row := range s.workers.Rows {
		st.WorkerAnswers[int(row[0].I)] = int(row[1].I)
	}
	return st
}

// WriteReport renders a human-readable summary.
func (s *Store) WriteReport(w io.Writer) {
	st := s.ComputeStats()
	fmt.Fprintf(w, "metadata: %d tasks, %d assignments, %d workers, match rate %.2f\n",
		st.Tasks, st.Assignments, st.Workers, st.MatchRate)
	preds := make([]string, 0, len(st.Selectivity))
	for p := range st.Selectivity {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		fmt.Fprintf(w, "  %-50s tasks=%-5d selectivity=%.3f\n", p, st.PerPredicate[p], st.Selectivity[p])
	}
}
