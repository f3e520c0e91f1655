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
// target (see EXPERIMENTS.md).
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
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/quality"
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

// buildPlan parses and binds one of the benchmark queries.
func buildPlan(d *dataset.Data, query string, planCfg exec.PlanConfig) (*exec.Plan, error) {
	st, err := cql.Parse(query)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	sel, ok := st.(*cql.Select)
	if !ok {
		return nil, fmt.Errorf("bench: query is not a SELECT")
	}
	return exec.BuildPlan(sel, d.Catalog, d.Oracle, planCfg)
}

// methodFor resolves a method label to its strategy over a fresh plan
// and its quality mode: "CDB+" selects tasks like "CDB" and adds CDB+
// quality control.
func methodFor(method string, p *exec.Plan, cfg Config, rng *stats.RNG) (cost.Strategy, exec.QualityMode, error) {
	name, plus := strings.CutSuffix(method, "+")
	newStrategy, err := exec.StrategyByName(name)
	if err != nil {
		return nil, 0, err
	}
	qm := exec.MajorityVoting
	if plus {
		qm = exec.CDBPlus
	}
	return newStrategy(p, cfg.Samples, rng), qm, nil
}

// runCell executes one (query, method) cell once and returns metrics.
func runCell(d *dataset.Data, query, method string, cfg Config, rng *stats.RNG,
	planCfg exec.PlanConfig, maxRounds int, workers *quality.WorkerModel) (stats.Metrics, error) {

	p, err := buildPlan(d, query, planCfg)
	if err != nil {
		return stats.Metrics{}, err
	}
	var tr *obs.Tracer
	var root obs.SpanID
	if cfg.Observer != nil {
		tr = obs.NewTracer(cfg.Observer)
		root = tr.Begin(obs.SpanQuery)
		tr.Mutate(root, func(s *obs.Span) { s.Query = query; s.Label = method })
	}
	strat, qm, err := methodFor(method, p, cfg, rng)
	if err != nil {
		return stats.Metrics{}, err
	}
	rep, err := exec.Run(context.Background(), p, exec.Options{
		Strategy:   strat,
		Redundancy: cfg.Redundancy,
		Quality:    qm,
		MaxRounds:  maxRounds,
		Pool:       crowd.NewPool(cfg.PoolSize, cfg.WorkerQ, cfg.WorkerSD, rng.Split()),
		Workers:    workers,
		Trace:      tr,
	})
	if tr != nil {
		tr.End(root)
		tr.Finish()
	}
	if err != nil {
		return stats.Metrics{}, err
	}
	return rep.Metrics, nil
}

// averageCell repeats runCell cfg.Reps times with split RNGs.
func averageCell(d *dataset.Data, query, method string, cfg Config, rng *stats.RNG,
	planCfg exec.PlanConfig, maxRounds int) (stats.Agg, error) {

	var agg stats.Agg
	for rep := 0; rep < cfg.Reps; rep++ {
		m, err := runCell(d, query, method, cfg, rng, planCfg, maxRounds, nil)
		if err != nil {
			return agg, err
		}
		agg.Add(m)
	}
	return agg, nil
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
	"trans":  Trans,
	"plan":   PlanBench,
}

// ExperimentIDs returns the registry keys in canonical order.
func ExperimentIDs() []string {
	return []string{"fig1", "fig8", "fig11", "fig14", "fig17", "fig18", "fig20", "fig21", "fig22", "fig23", "table5", "chaos", "trans", "plan"}
}

// planCfg is the paper's planning point (2-gram Jaccard, ε = 0.3),
// which every experiment but the similarity ablation runs at.
var planCfg = exec.DefaultPlanConfig()
