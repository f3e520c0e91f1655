// Package bench regenerates every table and figure of the paper's
// evaluation (§6 and Appendix D) on the synthetic datasets: the
// cost/quality/latency grids of Figs. 8–10 and 14–16, the
// worker-quality sweep of Fig. 11, the collection experiments of
// Fig. 17, the budget curves of Figs. 18–19, the quality/redundancy
// tradeoffs of Figs. 20–21, the cost-latency tradeoff of Fig. 22, the
// similarity-function ablation of Figs. 23–24, and the optimizer
// efficiency numbers of Table 5. Absolute values differ from the paper
// (synthetic data, simulated crowd); the comparisons — who wins, by
// roughly what factor, where curves cross — are the reproduction
// target (see EXPERIMENTS.md). Every query a table executes goes
// through engine.RunSelect, the SELECT pipeline DB.Exec runs.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/stats"
)

// Config controls an experiment run. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	Dataset    string  // "paper" or "award"
	Scale      float64 // dataset scale; 1.0 = the paper's Table 2/3 sizes
	Seed       uint64
	Reps       int     // repetitions averaged per cell (paper: 1000)
	Redundancy int     // answers per task (paper: 5)
	WorkerQ    float64 // mean worker accuracy (paper: 0.8)
	WorkerSD   float64 // accuracy stddev (paper: 0.1, i.e. variance 0.01)
	PoolSize   int     // simulated workers available
	Samples    int     // MinCut sampling count (paper real exp: 100)
	// Observer, when set, receives the lifecycle spans of every query
	// execution the harness performs (one trace per runCell).
	Observer obs.Observer

	// Chaos knobs (the "chaos" experiment and cdbench -fault-* flags):
	// fault rates injected into the asynchronous transport, plus the
	// executor's reliability policy. All zero means a clean transport.
	FaultSeed      uint64
	FaultDrop      float64 // > 0 pins the chaos sweep to this one drop rate
	FaultStraggler float64
	FaultDup       float64
	FaultCorrupt   float64
	FaultBlackout  string  // "market:from:until" (empty market = all)
	TaskDeadline   int64   // per-HIT deadline in virtual ticks (0 = default)
	MaxRetries     int     // reissue waves per round (0 = default)
	HedgeFrac      float64 // slowest fraction hedged (0 = default)
}

// DefaultConfig returns settings sized for minutes-scale regeneration.
// Raise Scale/Reps toward 1.0/1000 to approach the paper's protocol.
func DefaultConfig() Config {
	return Config{
		Dataset:    "paper",
		Scale:      0.12,
		Seed:       1,
		Reps:       3,
		Redundancy: 5,
		WorkerQ:    0.8,
		WorkerSD:   0.1,
		PoolSize:   50,
		Samples:    20,
	}
}

// Methods lists the nine systems of Fig. 8 in the paper's order.
var Methods = []string{"Trans", "ACD", "CrowdDB", "Qurk", "Deco", "OptTree", "MinCut", "CDB", "CDB+"}

// Row is one data point of an experiment output.
type Row struct {
	Labels []string  // dimension values, aligned with Table.LabelNames
	Values []float64 // metric values, aligned with Table.ValueNames
	// CI optionally holds the 95% confidence half-width of each value
	// (aligned with Values); rendered as "v±ci". nil or zero entries
	// render as the bare value.
	CI []float64
}

// Table is one regenerated figure/table.
type Table struct {
	ID         string
	Title      string
	LabelNames []string
	ValueNames []string
	Rows       []Row
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	header := append(append([]string{}, t.LabelNames...), t.ValueNames...)
	fmt.Fprintln(w, strings.Join(pad(header), "  "))
	for _, r := range t.Rows {
		cells := append([]string{}, r.Labels...)
		for i, v := range r.Values {
			if i < len(r.CI) && r.CI[i] > 0 {
				cells = append(cells, fmt.Sprintf("%.3f±%.3f", v, r.CI[i]))
			} else {
				cells = append(cells, fmt.Sprintf("%.3f", v))
			}
		}
		fmt.Fprintln(w, strings.Join(pad(cells), "  "))
	}
	fmt.Fprintln(w)
}

func pad(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprintf("%-12s", c)
	}
	return out
}

// source is what every cell over d binds against, at the paper's
// planning point.
func source(d *dataset.Data) engine.Source {
	return engine.Source{Catalog: d.Catalog, Oracle: d.Oracle, PlanConfig: planCfg}
}

// pool is one rep's simulated crowd, drawn from r.
func (cfg Config) pool(r *stats.RNG) *crowd.Pool {
	return crowd.NewPool(cfg.PoolSize, cfg.WorkerQ, cfg.WorkerSD, r)
}

// newCell fills the pipeline request of one (query, method) cell over
// pool: the method's labeling order and quality mode, "CDB+" ordering
// like "CDB" under CDB+ quality control. CDB and CDB+ configure no
// strategy, as DB.Exec never does, so they run the pipeline's own order
// over the graph DB.Exec binds; every other method is a configured
// strategy, built over the full bind with rng (MinCut's sampler draws
// from it).
func newCell(src engine.Source, query, method string, cfg Config, pool *crowd.Pool, rng *stats.RNG) (*engine.SelectRequest, error) {
	st, err := cql.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	sel, ok := st.(*cql.Select)
	if !ok {
		return nil, fmt.Errorf("bench: query is not a SELECT")
	}
	req := &engine.SelectRequest{Source: src, Stmt: sel, Exec: exec.Options{Redundancy: cfg.Redundancy, Pool: pool}}
	name, plus := strings.CutSuffix(method, "+")
	if plus {
		req.Exec.Quality = exec.CDBPlus
	}
	if !strings.EqualFold(name, "CDB") {
		build, err := exec.StrategyByName(name)
		if err != nil {
			return nil, err
		}
		req.Strategy = func(p *exec.Plan) cost.Strategy { return build(p, cfg.Samples, rng) }
	}
	return req, nil
}

// runCell sends one cell through engine.RunSelect, the pipeline DB.Exec
// runs. The run is traced when req carries a tracer or cfg.Observer is
// set — one trace per cell, its root span labelled with the method —
// and the Answer then carries the trace.
func runCell(req *engine.SelectRequest, cfg Config, method string) (*engine.Answer, error) {
	tr := req.Exec.Trace
	if tr == nil && cfg.Observer != nil {
		tr = obs.NewTracer(cfg.Observer)
	}
	root := tr.Begin(obs.SpanQuery)
	tr.Mutate(root, func(s *obs.Span) { s.Query = req.Stmt.String(); s.Label = method })
	req.Exec.Trace = tr
	ans, err := engine.RunSelect(context.Background(), req)
	tr.End(root)
	trace := tr.Finish()
	if err != nil {
		return nil, err
	}
	ans.Trace = trace
	return ans, nil
}

// averageCell runs one (query, method) cell cfg.Reps times, each rep
// over a fresh pool split from rng, and returns the reps' metrics and
// mean dollar spend. edit, when set, applies a figure's own knob to each
// rep's request.
func averageCell(src engine.Source, query, method string, cfg Config, rng *stats.RNG,
	edit func(*engine.SelectRequest)) (agg stats.Agg, dollars float64, err error) {

	for rep := 0; rep < cfg.Reps; rep++ {
		req, err := newCell(src, query, method, cfg, cfg.pool(rng.Split()), rng)
		if err != nil {
			return agg, 0, err
		}
		if edit != nil {
			edit(req)
		}
		ans, err := runCell(req, cfg, method)
		if err != nil {
			return agg, 0, err
		}
		agg.Add(ans.Report.Metrics)
		dollars += ans.Report.Dollars
	}
	return agg, dollars / float64(cfg.Reps), nil
}

// Registry maps experiment ids to runners; cmd/cdbench iterates it.
var Registry = map[string]func(Config) ([]*Table, error){
	"fig1":   Fig1,
	"fig8":   Fig8to10,
	"fig11":  Fig11,
	"fig14":  Fig14to16,
	"fig17":  Fig17,
	"fig18":  Fig18,
	"fig20":  Fig20,
	"fig21":  Fig21,
	"fig22":  Fig22,
	"fig23":  Fig23to24,
	"table5": Table5,
	"chaos":  Chaos,
	"plan":   PlanBench,
}

// ExperimentIDs returns the registry keys in canonical order.
func ExperimentIDs() []string {
	return []string{"fig1", "fig8", "fig11", "fig14", "fig17", "fig18", "fig20", "fig21", "fig22", "fig23", "table5", "chaos", "plan"}
}

// planCfg is the paper's planning point (2-gram Jaccard, ε = 0.3),
// which every experiment but the similarity ablation runs at.
var planCfg = exec.DefaultPlanConfig()
