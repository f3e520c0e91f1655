// Package cdb is a crowd-powered database system: a Go reproduction of
// "CDB: Optimizing Queries with Crowd-Based Selections and Joins"
// (SIGMOD 2017). It compiles CQL — SQL extended with CROWDJOIN,
// CROWDEQUAL, FILL, COLLECT and BUDGET — into a tuple-level query
// graph, selects crowd tasks with graph-based multi-goal optimization
// (cost via pruning expectations, latency via conflict-free rounds,
// quality via EM truth inference and entropy-driven task assignment),
// and executes them against a simulated crowd whose workers have
// latent accuracies.
//
// Quickstart:
//
//	db := cdb.Open(cdb.WithDataset("example", 0, 1))
//	res, err := db.Exec(`SELECT * FROM Paper, Researcher, Citation, University
//	    WHERE Paper.author CROWDJOIN Researcher.name AND
//	          Paper.title CROWDJOIN Citation.title AND
//	          Researcher.affiliation CROWDJOIN University.name;`)
//
// See the examples/ directory for runnable programs and cmd/cdbench
// for the paper's full benchmark suite.
package cdb

import (
	"context"
	"fmt"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/faults"
	"cdb/internal/meta"
	"cdb/internal/obs"
	"cdb/internal/sim"
	"cdb/internal/stats"
	"cdb/internal/table"
)

// MatchOracle supplies ground truth for the crowd simulation: whether
// two cell values denote the same real-world entity. Implement it for
// your own data, or use a generated dataset whose oracle is built in.
type MatchOracle interface {
	// JoinMatch reports whether leftVal (of leftTable.leftCol) and
	// rightVal (of rightTable.rightCol) truly join.
	JoinMatch(leftTable, leftCol, rightTable, rightCol, leftVal, rightVal string) bool
	// SelMatch reports whether val (of table.col) truly satisfies the
	// CROWDEQUAL constant.
	SelMatch(table, col, val, constant string) bool
}

// DB is a CDB instance: a catalog of relations, a simulated crowd, and
// the optimizer configuration.
type DB struct {
	// cfg is the resolved Config: every default applied, every invalid
	// field at its default. err joins what resolve found wrong with it.
	cfg Config
	err error

	catalog *table.Catalog
	oracle  exec.Oracle
	rng     *stats.RNG
	simFunc sim.Func
	faults  *faults.Injector
	// run is the executor configuration every SELECT shares — crowd,
	// redundancy, quality mode, markets, metadata store, calibration,
	// reliability policy — kept in the form the pipeline consumes.
	run exec.Options
}

// Err reports what was wrong with the configuration, every invalid
// field's error joined. Open never fails — an invalid field runs at its
// default — so check Err after it; OpenConfig refuses to construct.
func (db *DB) Err() error { return db.err }

// Option sets one or more Config fields; see Open.
type Option func(*Config)

// WithSeed fixes the random seed (defaults to 1); equal seeds replay
// identical crowds and answers.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithWorkers configures the simulated worker pool: n workers with
// latent accuracy drawn from N(mean, stddev²), the paper's model.
func WithWorkers(n int, mean, stddev float64) Option {
	return func(c *Config) {
		c.Workers, c.WorkerAccuracy, c.WorkerStddev, c.PerfectWorkers = n, mean, stddev, false
	}
}

// WithPerfectWorkers installs an infallible crowd of n workers —
// useful to study cost behaviour in isolation.
func WithPerfectWorkers(n int) Option {
	return func(c *Config) {
		c.Workers, c.WorkerAccuracy, c.WorkerStddev, c.PerfectWorkers = n, 0, 0, true
	}
}

// WithOracle installs a ground-truth oracle for the simulation.
func WithOracle(o MatchOracle) Option {
	return func(c *Config) { c.Oracle = o }
}

// WithDataset loads a built-in dataset: "paper" or "award" (the
// synthetic Table 2/3 benchmarks; scale 1.0 reproduces the paper's
// cardinalities) or "example" (the 12-tuple running example of
// Table 1 / Figure 4). The dataset's ground-truth oracle is installed
// automatically.
func WithDataset(name string, scale float64, seed uint64) Option {
	return func(c *Config) { c.Dataset, c.DatasetScale, c.DatasetSeed = name, scale, seed }
}

// WithSimilarity selects the matching-probability estimator:
// "2gram" (default), "token", "edit", "cosine" or "none".
func WithSimilarity(name string) Option {
	return func(c *Config) { c.Similarity = name }
}

// WithEpsilon sets the similarity pruning threshold in (0, 1]
// (default 0.3).
func WithEpsilon(eps float64) Option {
	return func(c *Config) { c.Epsilon = eps }
}

// WithRedundancy sets the answers collected per task (default 5).
func WithRedundancy(k int) Option {
	return func(c *Config) { c.Redundancy = k }
}

// WithQualityControl toggles CDB+ mode: EM truth inference with a
// persistent worker model and entropy-driven task assignment, instead
// of plain majority voting.
func WithQualityControl(on bool) Option {
	return func(c *Config) { c.QualityControl = on }
}

// WithFillTruth supplies the ground truth for FILL simulations: the
// true value of (table, row, column).
func WithFillTruth(f func(tableName string, row int, col string) string) Option {
	return func(c *Config) { c.FillTruth = f }
}

// WithCollectUniverse registers the hidden item universe workers draw
// from when COLLECTing rows for the named crowd table.
func WithCollectUniverse(tableName string, items []string) Option {
	return func(c *Config) {
		if c.CollectUniverse == nil {
			c.CollectUniverse = map[string][]string{}
		}
		c.CollectUniverse[tableName] = items
	}
}

// WithMetadata enables CDB's relational metadata store (§2.1): every
// task, worker answer and verdict is recorded into the
// cdb_tasks / cdb_workers / cdb_assignments relations, retrievable via
// Metadata().
func WithMetadata() Option {
	return func(c *Config) { c.Metadata = true }
}

// WithCalibration enables adaptive similarity→probability calibration
// (§4.1): answered tasks act as a training set and the optimizer
// re-weights the remaining edges with isotonic-calibrated
// probabilities mid-query.
func WithCalibration(on bool) Option {
	return func(c *Config) { c.Calibration = on }
}

// MarketSpec describes one crowdsourcing market for cross-market HIT
// deployment (the AMT/CrowdFlower/ChinaCrowd feature of §2.2). Names
// must be non-empty and distinct, Workers positive, Accuracy in [0, 1]
// and Stddev non-negative.
type MarketSpec struct {
	Name string
	// AssignControl mirrors AMT's developer model (requester-controlled
	// task assignment) vs CrowdFlower-style routing.
	AssignControl bool
	Workers       int
	Accuracy      float64
	Stddev        float64
}

// WithMarkets deploys HITs across several markets round-robin instead
// of a single pool.
func WithMarkets(specs ...MarketSpec) Option {
	return func(c *Config) { c.Markets = specs }
}

// BlackoutSpec is a market outage window in the transport's virtual
// ticks; an empty Market blacks out every platform.
type BlackoutSpec = faults.Blackout

// FaultConfig configures the deterministic chaos engine: simulated
// platform unreliability applied to every crowd answer — dropped,
// straggling, duplicated and corrupted answers plus market blackouts.
// Rates are probabilities in [0, 1]; equal seeds replay identical chaos.
type FaultConfig = faults.Config

// WithFaults turns on fault injection, which also switches execution
// to the fault-tolerant asynchronous transport (see WithReliability
// for the policy knobs). Queries then degrade gracefully: instead of
// wedging on lost answers, they return partial results flagged in
// Stats.Partial with per-answer confidences.
func WithFaults(fc FaultConfig) Option {
	return func(c *Config) { c.Faults = &fc }
}

// ReliabilityPolicy tunes the executor's fault tolerance over the
// asynchronous transport: per-HIT deadlines, retry waves and budget,
// backoff, jitter, hedging, and Strict fail-fast. Zero fields take the
// documented defaults.
type ReliabilityPolicy = exec.Reliability

// WithReliability selects the fault policy and switches execution to
// the asynchronous transport even without injected faults (useful to
// impose deadlines and cancellation on clean runs).
func WithReliability(rp ReliabilityPolicy) Option {
	return func(c *Config) { c.Reliability = &rp }
}

// Stats summarizes one statement's crowd interaction, all its runs
// together (a GROUP BY's grouping included): tasks, rounds,
// assignments, HITs and dollars, quality against the oracle, and the
// reliability, sharing and inference telemetry. Partial flags a
// degraded result — cancelled, timed out, tasks lost, or a GROUP BY its
// BUDGET cut short — and Reason names the first cause. Its json tags
// are the wire schema of the HTTP serving layer, pinned by a
// golden-file test.
type Stats = engine.QueryStats

// Result is the outcome of one Exec call or one Future: projected
// Columns and Rows for SELECT (Message explains DDL and collection
// statements), Stats, per-row Confidence, and the Trace,
// RequestID and Plan when those features are on. Like Stats, its json
// tags are the serving layer's wire schema.
type Result = engine.Result

// Exec parses and executes one CQL statement. It is ExecContext with
// a background context: no deadline, never cancelled.
func (db *DB) Exec(q string) (*Result, error) {
	return db.ExecContext(context.Background(), q)
}

// ExecContext parses and executes one CQL statement under ctx.
// Cancellation and deadlines are honored at crowd-round boundaries: a
// query interrupted mid-flight returns the partial result of its
// completed rounds (Stats.Partial set) rather than an error, unless
// the Strict reliability policy is selected.
func (db *DB) ExecContext(ctx context.Context, q string) (*Result, error) {
	tr := db.tracer()
	root := tr.Begin(obs.SpanQuery)
	tr.Mutate(root, func(s *obs.Span) { s.Query = q })

	parseSpan := tr.Begin(obs.SpanParse)
	st, err := cql.Parse(q)
	tr.End(parseSpan)
	if err != nil {
		tr.Mutate(root, func(s *obs.Span) { s.Err = err.Error() })
		tr.End(root)
		tr.Finish()
		return nil, err
	}

	var res *Result
	switch s := st.(type) {
	case *cql.CreateTable:
		res, err = db.execCreate(s)
	case *cql.Select:
		res, err = db.execSelect(ctx, s, tr)
	case *cql.Fill:
		res, err = db.execFill(s)
	case *cql.Collect:
		res, err = db.execCollect(s)
	case *cql.Explain:
		res, err = db.execExplain(s)
	default:
		err = fmt.Errorf("cdb: unsupported statement %T", st)
	}
	if err != nil {
		tr.Mutate(root, func(s *obs.Span) { s.Err = err.Error() })
	}
	tr.End(root)
	if trace := tr.Finish(); trace != nil && res != nil {
		res.Trace = trace
	}
	return res, err
}

// MustExec is Exec that panics on error (for examples and tests).
func (db *DB) MustExec(q string) *Result {
	r, err := db.Exec(q)
	if err != nil {
		panic(err)
	}
	return r
}

func (db *DB) execCreate(s *cql.CreateTable) (*Result, error) {
	if _, exists := db.catalog.Get(s.Name); exists {
		return nil, fmt.Errorf("cdb: table %s already exists", s.Name)
	}
	schema := table.Schema{Name: s.Name, CrowdTable: s.Crowd}
	for _, c := range s.Cols {
		kind := table.String
		switch c.Type {
		case "int":
			kind = table.Int
		case "float":
			kind = table.Float
		}
		schema.Columns = append(schema.Columns, table.Column{Name: c.Name, Kind: kind, Crowd: c.Crowd})
	}
	db.catalog.Register(table.New(schema))
	return &Result{Message: fmt.Sprintf("table %s created", s.Name)}, nil
}

// Insert appends a row of textual values (parsed per column type;
// "CNULL" marks a value to be crowd-filled later).
func (db *DB) Insert(tableName string, values ...string) error {
	tb, ok := db.catalog.Get(tableName)
	if !ok {
		return fmt.Errorf("cdb: %w %s", ErrUnknownTable, tableName)
	}
	if len(values) != len(tb.Schema.Columns) {
		return fmt.Errorf("cdb: table %s wants %d values, got %d", tableName, len(tb.Schema.Columns), len(values))
	}
	row := make(table.Tuple, len(values))
	for i, v := range values {
		val, err := table.ParseValue(tb.Schema.Columns[i].Kind, v)
		if err != nil {
			return fmt.Errorf("cdb: %w", err)
		}
		row[i] = val
	}
	return tb.Append(row)
}

// TableNames lists the registered tables.
func (db *DB) TableNames() []string { return db.catalog.Names() }

// Metadata returns the metadata store (nil unless WithMetadata was
// given).
func (db *DB) Metadata() *meta.Store { return db.run.Meta }

// Dump returns a table's contents as strings (header included).
func (db *DB) Dump(tableName string) ([][]string, error) {
	tb, ok := db.catalog.Get(tableName)
	if !ok {
		return nil, fmt.Errorf("cdb: %w %s", ErrUnknownTable, tableName)
	}
	header := make([]string, len(tb.Schema.Columns))
	for i, c := range tb.Schema.Columns {
		header[i] = c.Name
	}
	out := [][]string{header}
	for _, row := range tb.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, cells)
	}
	return out, nil
}

// transportFor builds the per-query asynchronous transport of the
// fault-tolerant path; execSelect hands it to the pipeline only when
// that path is selected (fault injection or an explicit reliability
// policy). The pipeline closes it.
func (db *DB) transportFor() *crowd.Transport {
	markets := []*crowd.Market{crowd.NewMarket("default", true, db.run.Pool)}
	if db.run.Router != nil {
		markets = db.run.Router.Markets
	}
	return crowd.NewTransport(crowd.TransportConfig{
		Markets: markets,
		Faults:  db.faults,
		Seed:    db.rng.Split().Uint64(),
	})
}

// selectRequest is s's trip through the shared pipeline with this DB's
// crowd, quality mode and optimizer configuration. It configures no
// strategy, so the pipeline runs the paper's order, and passes a
// transport constructor only when the fault-tolerant path is selected:
// a constructor counts as set before it is called.
func (db *DB) selectRequest(s *cql.Select) *engine.SelectRequest {
	req := &engine.SelectRequest{
		Source: engine.Source{
			Catalog:    db.catalog,
			Oracle:     db.oracle,
			PlanConfig: exec.PlanConfig{Sim: db.simFunc, Epsilon: db.cfg.Epsilon},
		},
		Stmt:    s,
		Planner: db.cfg.Planner,
		Exec:    db.run,
	}
	if db.faults != nil || db.cfg.Reliability != nil {
		req.Transport = db.transportFor
	}
	return req
}

// execSelect sends one SELECT through the shared pipeline, GROUP BY
// and ORDER BY included.
func (db *DB) execSelect(ctx context.Context, s *cql.Select, tr *obs.Tracer) (*Result, error) {
	req := db.selectRequest(s)
	req.Exec.Trace = tr
	ans, err := engine.RunSelect(ctx, req)
	if err != nil {
		return nil, err
	}
	return ans.Result(), nil
}
