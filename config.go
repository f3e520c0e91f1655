package cdb

import (
	"errors"
	"fmt"
	"strings"

	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/faults"
	"cdb/internal/meta"
	"cdb/internal/quality"
	"cdb/internal/sim"
	"cdb/internal/stats"
	"cdb/internal/table"
)

// Config is the whole configuration of a DB and its only
// representation: every Option sets the field(s) it names, and Open and
// OpenConfig hand the finished struct to resolve, which alone applies
// defaults, validates and draws from the seed. A zero field means its
// documented default. OpenConfig refuses an invalid Config — a typo in a
// dataset or similarity name is an error at the call site, not a
// silently different experiment — while Open runs it and reports it on
// Err.
type Config struct {
	// Seed fixes the random seed; 0 means the documented default of 1.
	Seed uint64

	// Dataset optionally preloads a built-in dataset ("paper", "award"
	// or "example") with its ground-truth oracle. Empty starts with an
	// empty catalog. Scale 0 means 1.0; DatasetSeed 0 reuses Seed.
	Dataset      string
	DatasetScale float64
	DatasetSeed  uint64

	// Workers configures the simulated pool: Workers workers with
	// accuracy ~ N(WorkerAccuracy, WorkerStddev²). All three zero is
	// the default pool (50 workers, 0.8 ± 0.1); with any of them set, a
	// zero Workers means 50 and a zero WorkerAccuracy 0.8.
	// PerfectWorkers installs an infallible crowd of Workers instead:
	// Workers must then be set, the accuracy fields must not.
	Workers        int
	WorkerAccuracy float64
	WorkerStddev   float64
	PerfectWorkers bool

	// Similarity names the matching-probability estimator ("2gram",
	// "token", "edit", "cosine", "none"); empty means 2gram. Epsilon
	// is the pruning threshold in (0, 1]; 0 means 0.3. Redundancy is
	// the answers per task; 0 means 5.
	Similarity string
	Epsilon    float64
	Redundancy int

	// QualityControl enables CDB+ (EM truth inference + entropy-driven
	// assignment).
	QualityControl bool

	// Planner turns on the greedy multi-join planner (see WithPlanner).
	Planner bool

	// Oracle overrides the simulation ground truth, the loaded
	// dataset's included. FillTruth supplies the true value of (table,
	// row, column) for FILL simulations, and CollectUniverse the hidden
	// item universe workers draw from when COLLECTing rows, per crowd
	// table (names match case-insensitively).
	Oracle          MatchOracle
	FillTruth       func(tableName string, row int, col string) string
	CollectUniverse map[string][]string

	// Metadata enables the relational metadata store (§2.1);
	// Calibration the adaptive similarity→probability mapping (§4.1);
	// Tracing per-statement span trees on every Result. Observer
	// streams every finished span as well, and implies Tracing.
	Metadata    bool
	Calibration bool
	Tracing     bool
	Observer    Observer

	// Markets optionally deploys HITs across several crowdsourcing
	// markets instead of the single default pool.
	Markets []MarketSpec

	// Faults optionally enables the deterministic chaos engine, and
	// Reliability tunes the fault-tolerant transport's policy; see
	// WithFaults and WithReliability.
	Faults      *FaultConfig
	Reliability *ReliabilityPolicy
}

// Open creates a CDB instance from options. It never fails: an invalid
// field runs at its default and is reported by Err.
func Open(options ...Option) *DB {
	var cfg Config
	for _, opt := range options {
		opt(&cfg)
	}
	return resolve(cfg)
}

// OpenConfig creates a CDB instance from cfg, or fails with every
// invalid field's error joined.
func OpenConfig(cfg Config) (*DB, error) {
	db := resolve(cfg)
	if db.err != nil {
		return nil, db.err
	}
	return db, nil
}

// field validates one scalar Config field and fills its default: an
// invalid value is reported and then, like a zero one, replaced by def.
func field[T comparable](errs *[]error, v *T, def T, valid bool, format string) {
	var zero T
	if !valid {
		*errs = append(*errs, fmt.Errorf("cdb: "+format, *v))
		*v = zero
	}
	if *v == zero {
		*v = def
	}
}

// resolve is the one place a Config becomes a DB. It validates every
// field, fills every zero or invalid one with its default, and performs
// the seeded draws in a fixed order — seed, then the pool if the worker
// fields configure one, then one pool per market, then the default pool
// if none was configured — so the crowd depends on the Config alone,
// never on the order its fields were set in. The DB is usable even when
// its err, which joins every invalid field's, is non-nil.
func resolve(cfg Config) *DB {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf("cdb: "+format, args...)) }

	field(&errs, &cfg.Seed, 1, true, "")
	field(&errs, &cfg.DatasetSeed, cfg.Seed, true, "")
	field(&errs, &cfg.DatasetScale, 0, cfg.DatasetScale >= 0, "dataset scale %v must be non-negative")
	field(&errs, &cfg.Epsilon, 0.3, cfg.Epsilon >= 0 && cfg.Epsilon <= 1, "epsilon %v out of range (0, 1]")
	field(&errs, &cfg.Redundancy, 5, cfg.Redundancy >= 0, "redundancy %d must be positive")
	field(&errs, &cfg.Similarity, "2gram", true, "")

	checked := len(errs)
	switch {
	case cfg.Workers < 0 || cfg.PerfectWorkers && cfg.Workers == 0:
		bad("worker count %d must be positive", cfg.Workers)
	case cfg.WorkerAccuracy < 0 || cfg.WorkerAccuracy > 1:
		bad("worker accuracy %v out of range [0, 1]", cfg.WorkerAccuracy)
	case cfg.WorkerStddev < 0:
		bad("worker accuracy stddev %v must be non-negative", cfg.WorkerStddev)
	case cfg.PerfectWorkers && (cfg.WorkerAccuracy != 0 || cfg.WorkerStddev != 0):
		bad("perfect workers contradict worker accuracy %v ± %v", cfg.WorkerAccuracy, cfg.WorkerStddev)
	}
	if len(errs) > checked {
		cfg.Workers, cfg.WorkerAccuracy, cfg.WorkerStddev = 0, 0, 0
	}
	configured := cfg.PerfectWorkers || cfg.Workers != 0 || cfg.WorkerAccuracy != 0 || cfg.WorkerStddev != 0
	if !configured {
		cfg.WorkerStddev = 0.1
	}
	field(&errs, &cfg.Workers, 50, true, "")
	field(&errs, &cfg.WorkerAccuracy, 0.8, true, "")

	seen := map[string]bool{}
	for _, m := range cfg.Markets {
		if m.Name == "" || seen[m.Name] || m.Workers <= 0 || m.Accuracy < 0 || m.Accuracy > 1 || m.Stddev < 0 {
			bad("market %+v: want a distinct non-empty name, workers > 0, accuracy in [0, 1] and stddev >= 0", m)
			cfg.Markets = nil
			break
		}
		seen[m.Name] = true
	}
	universe := make(map[string][]string, len(cfg.CollectUniverse))
	for name, items := range cfg.CollectUniverse {
		universe[strings.ToLower(name)] = items
	}
	cfg.CollectUniverse = universe

	db := &DB{
		cfg:     cfg,
		catalog: table.NewCatalog(),
		oracle:  exec.ExactOracle{},
		rng:     stats.NewRNG(cfg.Seed),
		run: exec.Options{
			Redundancy: cfg.Redundancy,
			Workers:    quality.NewWorkerModel(),
			Calibrate:  cfg.Calibration,
		},
	}
	var err error
	if db.simFunc, err = sim.ByName(cfg.Similarity); err != nil {
		bad("%v", err) // ByName's fallback is the default estimator
	}
	if cfg.Dataset != "" {
		dcfg := dataset.Config{Seed: cfg.DatasetSeed, Scale: cfg.DatasetScale}
		d, err := dataset.ByName(cfg.Dataset, dcfg)
		if err != nil {
			bad("%v", err)
			d, _ = dataset.ByName("paper", dcfg)
		}
		db.catalog, db.oracle = d.Catalog, d.Oracle
	}
	if cfg.Oracle != nil {
		db.oracle = cfg.Oracle
	}
	if cfg.QualityControl {
		db.run.Quality = exec.CDBPlus
	}
	if cfg.Metadata {
		db.run.Meta = meta.NewStore()
	}
	if cfg.Faults != nil {
		db.faults = faults.New(*cfg.Faults)
	}
	if cfg.Reliability != nil {
		db.run.Reliability = *cfg.Reliability
	}

	newPool := func() *crowd.Pool {
		if cfg.PerfectWorkers {
			return crowd.NewPerfectPool(cfg.Workers, db.rng.Split())
		}
		return crowd.NewPool(cfg.Workers, cfg.WorkerAccuracy, cfg.WorkerStddev, db.rng.Split())
	}
	if configured {
		db.run.Pool = newPool()
	}
	if len(cfg.Markets) > 0 {
		markets := make([]*crowd.Market, len(cfg.Markets))
		for i, m := range cfg.Markets {
			markets[i] = crowd.NewMarket(m.Name, m.AssignControl, crowd.NewPool(m.Workers, m.Accuracy, m.Stddev, db.rng.Split()))
		}
		db.run.Router = crowd.NewRouter(markets...)
	}
	if !configured {
		db.run.Pool = newPool()
	}
	db.err = errors.Join(errs...)
	return db
}
