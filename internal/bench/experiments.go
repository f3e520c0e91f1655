package bench

import (
	"fmt"

	"cdb/internal/baselines"
	"cdb/internal/cost"
	"cdb/internal/dataset"
	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/obs"
	"cdb/internal/sim"
	"cdb/internal/stats"
)

// Fig1 regenerates the motivating example of Figure 1: a three-table
// instance whose tuples want different join directions, so every
// table-level order is expensive while the tuple-level optimum asks
// only the gate edges. It reports the cost of each tree order, the
// best tree order, and CDB's graph-based cost.
func Fig1(cfg Config) ([]*Table, error) {
	// Instance: T2 holds 2 "a-type" tuples (4 blue T1 edges, 1 red T3
	// edge) and 2 "b-type" tuples (1 red T1 edge, 4 blue T3 edges). No
	// complete blue chain exists: every candidate dies at a gate.
	s := &graph.Structure{
		Tables: []string{"T1", "T2", "T3"},
		Preds:  []graph.QPred{{A: 0, B: 1, Name: "T1~T2"}, {A: 1, B: 2, Name: "T2~T3"}},
	}
	g := graph.MustNewGraph(s, []int{8, 4, 8})
	truth := map[int]bool{}
	add := func(pred, a, b int, blue bool) {
		w := 0.4
		if blue {
			w = 0.8
		}
		id := g.AddEdge(pred, a, b, w)
		truth[id] = blue
	}
	for t2 := 0; t2 < 2; t2++ { // a-type
		for k := 0; k < 4; k++ {
			add(0, t2*4+k, t2, true) // blue T1 edges
		}
		add(1, t2, t2, false) // single red T3 gate
	}
	for t2 := 2; t2 < 4; t2++ { // b-type
		add(0, t2*2-3, t2, false) // single red T1 gate
		for k := 0; k < 4; k++ {
			add(1, t2, (t2-2)*4+k, true) // blue T3 edges
		}
	}
	truthSlice := make([]bool, g.NumEdges())
	for e, b := range truth {
		truthSlice[e] = b
	}

	table := &Table{
		ID:         "fig1",
		Title:      "Motivating example: tuple-level vs table-level optimization (#tasks)",
		LabelNames: []string{"plan"},
		ValueNames: []string{"tasks"},
	}
	orders := [][]int{{0, 1}, {1, 0}}
	best := 1 << 30
	for _, ord := range orders {
		c := baselines.SimulateOrderCost(g, truthSlice, ord)
		if c < best {
			best = c
		}
		table.Rows = append(table.Rows, Row{
			Labels: []string{fmt.Sprintf("tree-order-%v", ord)},
			Values: []float64{float64(c)},
		})
	}
	// CDB execution with a perfect crowd (cost isolation).
	strat := &cost.Expectation{}
	tasks := 0
	for {
		batch := strat.NextRound(g)
		if len(batch) == 0 {
			break
		}
		tasks += len(batch)
		for _, e := range batch {
			if truthSlice[e] {
				g.SetColor(e, graph.Blue)
			} else {
				g.SetColor(e, graph.Red)
			}
		}
	}
	table.Rows = append(table.Rows, Row{Labels: []string{"tree-best"}, Values: []float64{float64(best)}})
	table.Rows = append(table.Rows, Row{Labels: []string{"CDB-graph"}, Values: []float64{float64(tasks)}})
	return []*Table{table}, nil
}

// Fig8to10 regenerates the simulated-experiment grid: cost (#tasks,
// Fig. 8), quality (F-measure, Fig. 9) and latency (#rounds, Fig. 10)
// for the nine methods on the five representative queries.
func Fig8to10(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed)
	d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}

	cost8 := &Table{ID: "fig8", Title: "Cost (#tasks), simulated workers N(q,0.01)",
		LabelNames: []string{"query", "method"}, ValueNames: []string{"tasks"}}
	qual9 := &Table{ID: "fig9", Title: "Quality (F-measure)",
		LabelNames: []string{"query", "method"}, ValueNames: []string{"f1"}}
	lat10 := &Table{ID: "fig10", Title: "Latency (#rounds)",
		LabelNames: []string{"query", "method"}, ValueNames: []string{"rounds"}}

	for _, q := range dataset.QueryLabels() {
		query := dataset.Queries(d.Name)[q]
		for _, method := range Methods {
			agg, _, err := averageCell(source(d), query, method, cfg, rng, nil)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s/%s: %w", q, method, err)
			}
			tasks, rounds, _, _, f1 := agg.Mean()
			ciT, ciR, _, _, ciF := agg.CI95()
			cost8.Rows = append(cost8.Rows, Row{Labels: []string{q, method}, Values: []float64{tasks}, CI: []float64{ciT}})
			qual9.Rows = append(qual9.Rows, Row{Labels: []string{q, method}, Values: []float64{f1}, CI: []float64{ciF}})
			lat10.Rows = append(lat10.Rows, Row{Labels: []string{q, method}, Values: []float64{rounds}, CI: []float64{ciR}})
		}
	}
	return []*Table{cost8, qual9, lat10}, nil
}

// Fig11 sweeps the simulated worker quality q ∈ {0.7, 0.8, 0.9} and
// reports mean cost, F-measure and rounds per method (averaged over
// the five queries, as the paper's per-dataset panels do).
func Fig11(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed + 11)
	d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	out := &Table{ID: "fig11", Title: "Varying worker quality",
		LabelNames: []string{"workerQ", "method"}, ValueNames: []string{"tasks", "f1", "rounds"}}
	for _, q := range []float64{0.7, 0.8, 0.9} {
		c := cfg
		c.WorkerQ = q
		for _, method := range Methods {
			var agg stats.Agg
			for _, ql := range dataset.QueryLabels() {
				a, _, err := averageCell(source(d), dataset.Queries(d.Name)[ql], method, c, rng, nil)
				if err != nil {
					return nil, fmt.Errorf("fig11: %w", err)
				}
				t, r, p, rec, _ := a.Mean()
				agg.Add(stats.Metrics{Tasks: int(t + 0.5), Rounds: int(r + 0.5), Precision: p, Recall: rec})
			}
			tasks, rounds, _, _, f1 := agg.Mean()
			out.Rows = append(out.Rows, Row{
				Labels: []string{fmt.Sprintf("%.1f", q), method},
				Values: []float64{tasks, f1, rounds},
			})
		}
	}
	return []*Table{out}, nil
}

// Fig14to16 regenerates the "real experiment" panels: the same grid
// with an AMT-like high-quality crowd (the paper observes workers on
// real platforms answer these tasks well) and HIT pricing (10 tasks
// per $0.1 HIT).
func Fig14to16(cfg Config) ([]*Table, error) {
	c := cfg
	c.WorkerQ = 0.92
	c.WorkerSD = 0.05
	rng := stats.NewRNG(cfg.Seed + 14)
	d, err := dataset.ByName(c.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: c.Scale})
	if err != nil {
		return nil, err
	}

	cost14 := &Table{ID: "fig14", Title: "Real-crowd cost (#tasks and $)",
		LabelNames: []string{"query", "method"}, ValueNames: []string{"tasks", "dollars"}}
	qual15 := &Table{ID: "fig15", Title: "Real-crowd quality (F-measure)",
		LabelNames: []string{"query", "method"}, ValueNames: []string{"f1"}}
	lat16 := &Table{ID: "fig16", Title: "Real-crowd latency (#rounds)",
		LabelNames: []string{"query", "method"}, ValueNames: []string{"rounds"}}

	for _, q := range dataset.QueryLabels() {
		query := dataset.Queries(d.Name)[q]
		for _, method := range Methods {
			agg, dollars, err := averageCell(source(d), query, method, c, rng, nil)
			if err != nil {
				return nil, err
			}
			tasks, rounds, _, _, f1 := agg.Mean()
			cost14.Rows = append(cost14.Rows, Row{Labels: []string{q, method}, Values: []float64{tasks, dollars}})
			qual15.Rows = append(qual15.Rows, Row{Labels: []string{q, method}, Values: []float64{f1}})
			lat16.Rows = append(lat16.Rows, Row{Labels: []string{q, method}, Values: []float64{rounds}})
		}
	}
	return []*Table{cost14, qual15, lat16}, nil
}

// Fig18 regenerates the budget experiment (Figs. 18–19): recall and
// precision of Baseline, CDB and CDB+ as the task budget grows.
func Fig18(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed + 18)
	d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	query := dataset.Queries(d.Name)["2J"]

	out := &Table{ID: "fig18", Title: "Budget-aware selection: recall/precision vs budget",
		LabelNames: []string{"budget", "method"}, ValueNames: []string{"recall", "precision"}}
	for _, b := range []int{50, 100, 200, 400, 600, 800} {
		for _, method := range []string{"Baseline", "CDB", "CDB+"} {
			// Every method runs BUDGET b; the greedy baseline is a
			// configured strategy, which the statement's account caps.
			cell, edit := method, budget(b)
			if method == "Baseline" {
				cell, edit = "CDB", func(r *engine.SelectRequest) {
					r.Stmt.Budget = b
					r.Strategy = func(*exec.Plan) cost.Strategy { return baselines.NewGreedyBudget() }
				}
			}
			agg, _, err := averageCell(source(d), query, cell, cfg, rng, edit)
			if err != nil {
				return nil, err
			}
			_, _, prec, rec, _ := agg.Mean()
			out.Rows = append(out.Rows, Row{
				Labels: []string{fmt.Sprintf("%04d", b), method},
				Values: []float64{rec, prec},
			})
		}
	}
	return []*Table{out}, nil
}

// Fig20 regenerates the redundancy tradeoff: F-measure of CDB+ vs
// majority voting on the most complex query (3J2S) as the number of
// assignments per task grows.
func Fig20(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed + 20)
	c := cfg
	// 3J2S has few answers at small scales; a larger instance and more
	// repetitions keep the F-measure estimates stable.
	if c.Scale < 0.3 {
		c.Scale = 0.3
	}
	if c.Reps < 6 {
		c.Reps = 6
	}
	c.WorkerQ = 0.75 // the regime where inference matters most
	d, err := dataset.ByName(c.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: c.Scale})
	if err != nil {
		return nil, err
	}
	query := dataset.Queries(d.Name)["3J2S"]
	out := &Table{ID: "fig20", Title: "Quality vs redundancy on 3J2S (CDB+ vs majority voting)",
		LabelNames: []string{"redundancy", "method"}, ValueNames: []string{"f1"}}
	for _, k := range []int{1, 3, 5, 7} {
		c.Redundancy = k
		for _, m := range votingModes {
			agg, _, err := averageCell(source(d), query, m.method, c, rng, nil)
			if err != nil {
				return nil, err
			}
			_, _, _, _, f1 := agg.Mean()
			out.Rows = append(out.Rows, Row{
				Labels: []string{fmt.Sprintf("%d", k), m.label},
				Values: []float64{f1},
			})
		}
	}
	return []*Table{out}, nil
}

// Fig21 regenerates quality vs cost: F-measure as the question budget
// grows, redundancy fixed at 5, CDB+ vs majority voting.
func Fig21(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed + 21)
	c := cfg
	if c.Scale < 0.3 {
		c.Scale = 0.3
	}
	if c.Reps < 6 {
		c.Reps = 6
	}
	c.WorkerQ = 0.75
	d, err := dataset.ByName(c.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: c.Scale})
	if err != nil {
		return nil, err
	}
	query := dataset.Queries(d.Name)["3J2S"]
	out := &Table{ID: "fig21", Title: "Quality vs #questions on 3J2S (redundancy 5)",
		LabelNames: []string{"budget", "method"}, ValueNames: []string{"f1"}}
	for _, b := range []int{40, 80, 120, 160, 200} {
		for _, m := range votingModes {
			agg, _, err := averageCell(source(d), query, m.method, c, rng, budget(b))
			if err != nil {
				return nil, err
			}
			_, _, _, _, f1 := agg.Mean()
			out.Rows = append(out.Rows, Row{
				Labels: []string{fmt.Sprintf("%04d", b), m.label},
				Values: []float64{f1},
			})
		}
	}
	return []*Table{out}, nil
}

// Fig22 regenerates the cost/latency tradeoff: each method optimizes
// for the first r−1 rounds and floods the rest in round r.
func Fig22(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed + 22)
	d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	query := dataset.Queries(d.Name)["3J"]
	out := &Table{ID: "fig22", Title: "Cost vs latency constraint (rounds) on 3J",
		LabelNames: []string{"rounds", "method"}, ValueNames: []string{"tasks"}}
	for _, rounds := range []int{1, 2, 3, 4, 5, 6} {
		for _, method := range Methods {
			agg, _, err := averageCell(source(d), query, method, cfg, rng,
				func(r *engine.SelectRequest) { r.Exec.MaxRounds = rounds })
			if err != nil {
				return nil, err
			}
			tasks, _, _, _, _ := agg.Mean()
			out.Rows = append(out.Rows, Row{
				Labels: []string{fmt.Sprintf("%d", rounds), method},
				Values: []float64{tasks},
			})
		}
	}
	return []*Table{out}, nil
}

// Fig23to24 regenerates the similarity-function ablation: cost and
// F-measure of the expectation-based method under NoSim, edit
// distance, token Jaccard and 2-gram Jaccard probabilities.
func Fig23to24(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed + 23)
	d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: rng.Uint64(), Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	funcs := []struct {
		label string
		f     sim.Func
	}{
		{"NoSim", sim.NoSim},
		{"ED", sim.EditDistance},
		{"JAC", sim.TokenJaccard},
		{"CDB", sim.Gram2Jaccard},
	}
	costT := &Table{ID: "fig23", Title: "Similarity functions: cost (#tasks)",
		LabelNames: []string{"query", "simfunc"}, ValueNames: []string{"tasks"}}
	qualT := &Table{ID: "fig24", Title: "Similarity functions: F-measure",
		LabelNames: []string{"query", "simfunc"}, ValueNames: []string{"f1"}}
	for _, q := range []string{"2J", "3J"} {
		query := dataset.Queries(d.Name)[q]
		for _, fn := range funcs {
			src := source(d)
			src.PlanConfig = exec.PlanConfig{Sim: fn.f, Epsilon: planCfg.Epsilon}
			agg, _, err := averageCell(src, query, "CDB", cfg, rng, nil)
			if err != nil {
				return nil, err
			}
			tasks, _, _, _, f1 := agg.Mean()
			costT.Rows = append(costT.Rows, Row{Labels: []string{q, fn.label}, Values: []float64{tasks}})
			qualT.Rows = append(qualT.Rows, Row{Labels: []string{q, fn.label}, Values: []float64{f1}})
		}
	}
	return []*Table{costT, qualT}, nil
}

// Table5 regenerates the optimizer-efficiency table: milliseconds to
// select the first parallel batch of tasks per query — round 1's score
// and batch spans of a traced CDB run, the selection the executor
// performs.
func Table5(cfg Config) ([]*Table, error) {
	rng := stats.NewRNG(cfg.Seed + 5)
	pool := cfg.pool(stats.NewRNG(cfg.Seed))
	out := &Table{ID: "table5", Title: "Task-selection efficiency (ms, first round)",
		LabelNames: []string{"dataset", "query"}, ValueNames: []string{"millis"}}
	for _, ds := range []string{"paper", "award"} {
		d, err := dataset.ByName(ds, dataset.Config{Seed: rng.Uint64(), Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		for _, q := range dataset.QueryLabels() {
			req, err := newCell(source(d), dataset.Queries(ds)[q], "CDB", cfg, pool, nil)
			if err != nil {
				return nil, err
			}
			req.Exec.Trace = obs.NewTracer(cfg.Observer)
			ans, err := runCell(req, cfg, "CDB")
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, Row{Labels: []string{ds, q}, Values: []float64{firstSelectionMillis(ans.Trace)}})
		}
	}
	return []*Table{out}, nil
}

// firstSelectionMillis sums round 1's score and batch spans of tr.
func firstSelectionMillis(tr *obs.Trace) float64 {
	round, us := -1, int64(0)
	for _, s := range tr.Spans {
		switch {
		case s.Name == obs.SpanRound && round < 0:
			round = s.ID
		case round >= 0 && s.Parent == round && (s.Name == obs.SpanScore || s.Name == obs.SpanBatch):
			us += s.Dur
		}
	}
	return float64(us) / 1000
}

// budget is the edit that runs a cell as BUDGET b.
func budget(b int) func(*engine.SelectRequest) {
	return func(r *engine.SelectRequest) { r.Stmt.Budget = b }
}

// votingModes are Figs. 20–21's two aggregations of CDB's order.
var votingModes = []struct{ method, label string }{{"CDB", "MajorityVote"}, {"CDB+", "CDB+"}}
