package bench

import (
	"fmt"

	"cdb/internal/dataset"
	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/stats"
)

// transTotals is one execution mode's totals over the transitive-
// inference workload.
type transTotals struct {
	tasks, rounds, assignments, hits, inferred int
	f1                                         stats.Agg
}

func (m *transTotals) add(r *exec.Report) {
	m.tasks += r.Metrics.Tasks
	m.rounds += r.Metrics.Rounds
	m.assignments += r.Assignments
	m.hits += r.HITs
	m.inferred += r.Inferred
	m.f1.Add(r.Metrics)
}

// meanF1 is the mean per-query F1.
func (m *transTotals) meanF1() float64 {
	_, _, _, _, f1 := m.f1.Mean()
	return f1
}

func (m *transTotals) row(mode string) Row {
	return Row{Labels: []string{mode}, Values: []float64{
		float64(m.tasks), float64(m.hits), float64(m.assignments), float64(m.rounds), float64(m.inferred), m.meanF1()}}
}

// transCell runs one (query, mode) cell. Both modes of a cell get a
// pool built from the same seed, so the comparison differs only in the
// inference overlay, never in worker-quality draws.
func transCell(src engine.Source, query string, transitive bool, cfg Config, poolSeed uint64) (*exec.Report, error) {
	req, err := newCell(src, query, "CDB", cfg, cfg.pool(stats.NewRNG(poolSeed)), nil)
	if err != nil {
		return nil, err
	}
	req.Exec.Transitive = transitive
	ans, err := runCell(req, cfg, "CDB")
	if err != nil {
		return nil, err
	}
	return ans.Report, nil
}

// Trans is the "trans" experiment: every paper benchmark query
// replayed with transitive inference off and on, equal crowd seeds,
// reporting the crowd work inference saves and the (bounded) quality
// movement. TestTransSavesHITs holds the table to its floors.
func Trans(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed)
	var base, trans transTotals
	cells := 0

	for rep := 0; rep < cfg.Reps; rep++ {
		d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		qs := dataset.Queries(cfg.Dataset)
		for _, label := range dataset.QueryLabels() {
			poolSeed := rng.Uint64()
			rb, err := transCell(source(d), qs[label], false, cfg, poolSeed)
			if err != nil {
				return nil, err
			}
			rt, err := transCell(source(d), qs[label], true, cfg, poolSeed)
			if err != nil {
				return nil, err
			}
			base.add(rb)
			trans.add(rt)
			cells++
		}
	}
	t := &Table{
		ID: "trans",
		Title: fmt.Sprintf("transitive join inference over %d query runs: %d tasks saved (%d HITs), %d labels inferred, F1 %+0.4f",
			cells, base.tasks-trans.tasks, base.hits-trans.hits, trans.inferred, trans.meanF1()-base.meanF1()),
		LabelNames: []string{"mode"},
		ValueNames: []string{"tasks", "hits", "assignments", "rounds", "inferred", "f1"},
		Rows:       []Row{base.row("baseline"), trans.row("transitive")},
	}
	return []*Table{t}, nil
}
