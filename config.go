package cdb

import "fmt"

// Config is the struct-based alternative to Open's option soup: fill
// the fields you care about, leave the rest zero, and OpenConfig
// applies the same defaults the options document. Unlike Open — which
// stays lenient for historical callers and only records invalid knobs
// on Err — OpenConfig refuses to construct a DB from an invalid
// configuration, so a typo in a dataset or strategy name is an error
// at the call site rather than a silently different experiment.
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
	// accuracy ~ N(WorkerAccuracy, WorkerStddev²). Zero Workers keeps
	// the default pool (50 workers, 0.8 ± 0.1). PerfectWorkers
	// installs an infallible crowd of Workers (or 50) instead.
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

	// Strategy names the task-selection strategy (see the Strategy*
	// constants); empty means StrategyCDB. QualityControl enables
	// CDB+ (EM truth inference + entropy-driven assignment).
	// Transitive enables transitive join inference (see
	// WithTransitivity): answered equalities deduce entailed labels for
	// free at the price of extra latency rounds.
	Strategy       string
	QualityControl bool
	Transitive     bool

	// Planner configures the greedy multi-join planner (see
	// PlannerConfig): greedy or fixed planned order, histogram bins. Nil
	// leaves the planner off.
	Planner *PlannerConfig

	// Oracle overrides the simulation ground truth (the dataset's
	// oracle, when one is loaded, is installed first).
	Oracle MatchOracle

	// Metadata enables the relational metadata store (§2.1);
	// Calibration the adaptive similarity→probability mapping (§4.1);
	// Tracing per-statement span trees on every Result.
	Metadata    bool
	Calibration bool
	Tracing     bool

	// Markets optionally deploys HITs across several crowdsourcing
	// markets instead of the single default pool.
	Markets []MarketSpec

	// Faults optionally enables the deterministic chaos engine, and
	// Reliability tunes the fault-tolerant transport's policy; see
	// WithFaults and WithReliability.
	Faults      *FaultConfig
	Reliability *ReliabilityPolicy
}

// OpenConfig creates a CDB instance from a validated Config. It is
// Open with errors: any knob Open would silently fall back on —
// unknown dataset, similarity or strategy names, out-of-range epsilon,
// non-positive redundancy or worker counts — fails construction
// instead.
func OpenConfig(cfg Config) (*DB, error) {
	var opts []Option
	if cfg.Seed != 0 {
		opts = append(opts, WithSeed(cfg.Seed))
	}
	switch {
	case cfg.PerfectWorkers:
		n := cfg.Workers
		if n == 0 {
			n = 50
		}
		if n < 0 {
			return nil, fmt.Errorf("cdb: worker count %d must be positive", n)
		}
		opts = append(opts, WithPerfectWorkers(n))
	case cfg.Workers != 0 || cfg.WorkerAccuracy != 0 || cfg.WorkerStddev != 0:
		n, mean, sd := cfg.Workers, cfg.WorkerAccuracy, cfg.WorkerStddev
		if n == 0 {
			n = 50
		}
		if mean == 0 {
			mean = 0.8
		}
		opts = append(opts, WithWorkers(n, mean, sd))
	}
	if cfg.Dataset != "" {
		scale := cfg.DatasetScale
		if scale == 0 {
			scale = 1.0
		}
		dseed := cfg.DatasetSeed
		if dseed == 0 {
			dseed = cfg.Seed
			if dseed == 0 {
				dseed = 1
			}
		}
		opts = append(opts, WithDataset(cfg.Dataset, scale, dseed))
	}
	if cfg.Oracle != nil {
		opts = append(opts, WithOracle(cfg.Oracle))
	}
	if cfg.Similarity != "" {
		opts = append(opts, WithSimilarity(cfg.Similarity))
	}
	if cfg.Epsilon != 0 {
		opts = append(opts, WithEpsilon(cfg.Epsilon))
	}
	if cfg.Redundancy != 0 {
		opts = append(opts, WithRedundancy(cfg.Redundancy))
	}
	if cfg.Strategy != "" {
		opts = append(opts, WithStrategy(cfg.Strategy))
	}
	if cfg.Planner != nil {
		opts = append(opts, WithPlanner(*cfg.Planner))
	}
	if cfg.QualityControl {
		opts = append(opts, WithQualityControl(true))
	}
	if cfg.Transitive {
		opts = append(opts, WithTransitivity(true))
	}
	if cfg.Metadata {
		opts = append(opts, WithMetadata())
	}
	if cfg.Calibration {
		opts = append(opts, WithCalibration(true))
	}
	if cfg.Tracing {
		opts = append(opts, WithTracing(true))
	}
	if len(cfg.Markets) > 0 {
		opts = append(opts, WithMarkets(cfg.Markets...))
	}
	if cfg.Faults != nil {
		opts = append(opts, WithFaults(*cfg.Faults))
	}
	if cfg.Reliability != nil {
		opts = append(opts, WithReliability(*cfg.Reliability))
	}
	db := Open(opts...)
	if err := db.Err(); err != nil {
		return nil, err
	}
	return db, nil
}
