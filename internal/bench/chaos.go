package bench

import (
	"fmt"
	"strconv"
	"strings"

	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/faults"
	"cdb/internal/stats"
)

// chaosDropGrid is the fault intensities the chaos experiment sweeps
// when cfg.FaultDrop is unset: from a clean baseline to a platform
// losing a fifth of its assignments.
var chaosDropGrid = []float64{0, 0.05, 0.1, 0.2}

// ParseBlackout parses a "market:from:until" outage spec ("" market
// means every platform, e.g. ":100:400").
func ParseBlackout(s string) (faults.Blackout, error) {
	if s == "" {
		return faults.Blackout{}, fmt.Errorf("empty blackout spec")
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return faults.Blackout{}, fmt.Errorf("blackout spec %q: want market:from:until", s)
	}
	from, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return faults.Blackout{}, fmt.Errorf("blackout spec %q: from: %w", s, err)
	}
	until, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return faults.Blackout{}, fmt.Errorf("blackout spec %q: until: %w", s, err)
	}
	return faults.Blackout{Market: parts[0], From: from, Until: until}, nil
}

// injectorFor builds the chaos engine for one drop rate, inheriting
// the other fault dimensions from the config.
func injectorFor(cfg Config, drop float64) (*faults.Injector, error) {
	fc := faults.Config{
		Seed:          cfg.FaultSeed,
		DropRate:      drop,
		StragglerRate: cfg.FaultStraggler,
		DuplicateRate: cfg.FaultDup,
		CorruptRate:   cfg.FaultCorrupt,
	}
	if cfg.FaultBlackout != "" {
		b, err := ParseBlackout(cfg.FaultBlackout)
		if err != nil {
			return nil, err
		}
		fc.Blackouts = append(fc.Blackouts, b)
	}
	return faults.New(fc), nil
}

// chaosCell runs one (method, fault-rate) cell over the asynchronous
// transport and reports both the paper's quality metrics and the
// reliability policy's telemetry.
func chaosCell(src engine.Source, query, method string, cfg Config, rng *stats.RNG,
	inj *faults.Injector) (*exec.Report, error) {

	pool := cfg.pool(rng.Split())
	req, err := newCell(src, query, method, cfg, pool, rng)
	if err != nil {
		return nil, err
	}
	req.Transport = func() *crowd.Transport {
		return crowd.NewTransport(crowd.TransportConfig{
			Markets: []*crowd.Market{
				crowd.NewMarket("amt", true, pool),
				crowd.NewMarket("crowdflower", true, cfg.pool(rng.Split())),
			},
			Faults: inj,
			Seed:   rng.Split().Uint64(),
		})
	}
	req.Exec.Reliability = exec.Reliability{
		TaskDeadline: cfg.TaskDeadline,
		MaxRetries:   cfg.MaxRetries,
		HedgeFrac:    cfg.HedgeFrac,
	}
	ans, err := runCell(req, cfg, method)
	if err != nil {
		return nil, err
	}
	return ans.Report, nil
}

// Chaos sweeps fault intensity over the fault-tolerant transport and
// reports how gracefully quality and cost degrade: the robustness
// counterpart of the paper's clean-crowd evaluation. Every cell runs
// the 2-join query with CDB and CDB+ under drop rates of
// chaosDropGrid, or under cfg.FaultDrop alone when it is set
// (straggler/duplicate/corrupt rates and a blackout window ride along
// from the config).
func Chaos(cfg Config) ([]*Table, error) {
	grid := chaosDropGrid
	if cfg.FaultDrop > 0 {
		grid = []float64{cfg.FaultDrop}
	}
	d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	query := dataset.Queries(d.Name)["2J"]
	rng := stats.NewRNG(cfg.Seed + 77)

	t := &Table{
		ID:         "chaos",
		Title:      "graceful degradation under injected faults (2J query)",
		LabelNames: []string{"method", "drop"},
		ValueNames: []string{"f1", "tasks", "lost", "retried", "hedged", "late", "dups", "partial"},
	}
	for _, method := range []string{"CDB", "CDB+"} {
		for _, drop := range grid {
			var agg stats.Agg
			var lost, retried, hedged, late, dups, partial float64
			for rep := 0; rep < cfg.Reps; rep++ {
				inj, err := injectorFor(cfg, drop)
				if err != nil {
					return nil, err
				}
				r, err := chaosCell(source(d), query, method, cfg, rng, inj)
				if err != nil {
					return nil, err
				}
				agg.Add(r.Metrics)
				rel := r.Reliability
				lost += float64(rel.Lost)
				retried += float64(rel.Retried)
				hedged += float64(rel.Hedged)
				late += float64(rel.Late)
				dups += float64(rel.Duplicates)
				if rel.Partial {
					partial++
				}
			}
			n := float64(cfg.Reps)
			tasks, _, _, _, f1 := agg.Mean()
			t.Rows = append(t.Rows, Row{
				Labels: []string{method, fmt.Sprintf("%.2f", drop)},
				Values: []float64{
					f1, tasks,
					lost / n, retried / n, hedged / n, late / n, dups / n,
					partial / n,
				},
			})
		}
	}
	return []*Table{t}, nil
}
