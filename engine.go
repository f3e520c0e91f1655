package cdb

import (
	"fmt"
	"strings"

	"cdb/internal/engine"
	"cdb/internal/exec"
	"cdb/internal/ledger"
)

// Engine serves concurrent CQL queries over one DB's catalog and
// crowd. Where DB.Exec runs one query at a time, an Engine admits up
// to MaxInFlight queries simultaneously and makes their overlap pay:
// identical crowd tasks are dispatched once and fanned out (HIT
// coalescing), verdicts persist in a bounded cache across queries, and
// similarity joins over the same table pairs are planned once.
//
// Sharing never changes answers. Every verdict is a pure function of
// the engine seed and the task's content, so a query returns
// bit-identical rows — and identical per-query Stats — whether it ran
// alone or raced the whole fleet; Stats.Coalesced / Stats.CachedTasks
// and EngineStats report how much crowd work the sharing saved.
//
// Every SELECT is served, aggregation is majority voting, and the
// catalog must not be mutated while the engine serves. Both entry
// points run the same SELECT pipeline (internal/engine/pipeline.go),
// GROUP BY and ORDER BY included; the engine adds admission, sharing
// and durability around it.
type Engine = engine.Engine

// Future is the pending result of one submitted query.
type Future = engine.Handle

// engineOptions is the engine configuration under construction: the
// sizing knobs land in engine.Config directly, NewEngine fills the rest
// from the DB and opens the ledger.
type engineOptions struct {
	engine.Config
	ledgerDir   string
	ledgerFsync string
}

// EngineOption configures NewEngine.
type EngineOption func(*engineOptions)

// WithMaxInFlight bounds concurrently executing queries (default 8).
func WithMaxInFlight(n int) EngineOption {
	return func(o *engineOptions) { o.MaxInFlight = n }
}

// WithMaxQueue bounds queries queued behind the in-flight set; a full
// queue makes Submit fail fast with ErrOverloaded (default 64).
func WithMaxQueue(n int) EngineOption {
	return func(o *engineOptions) { o.MaxQueue = n }
}

// WithVerdictCache bounds the shared verdict cache in entries
// (default 4096).
func WithVerdictCache(n int) EngineOption {
	return func(o *engineOptions) { o.CacheSize = n }
}

// WithResultCache bounds the query-level answer cache (default 256
// entries; negative disables). Identical statements are served whole
// from a completed execution — safe because answers are deterministic
// in the engine seed and the canonical statement. Shared results
// carry no Trace.
func WithResultCache(n int) EngineOption {
	return func(o *engineOptions) { o.ResultCacheSize = n }
}

// WithLedgerDir makes paid crowd work durable: every resolved verdict,
// executed statement and completed answer is appended to a CRC-framed
// write-ahead log in dir, and NewEngine replays the directory (torn
// tail truncated, never fatal) to pre-warm the verdict, sim-join and
// answer caches — so a restarted engine never re-asks the crowd for
// work it already paid for. The directory is bound to the engine seed:
// reopening it under a different seed fails, because verdicts are pure
// functions of the seed. Empty (the default) disables the ledger.
func WithLedgerDir(dir string) EngineOption {
	return func(o *engineOptions) { o.ledgerDir = dir }
}

// WithLedgerFsync selects the ledger durability policy: "always" (sync
// every append — zero accepted-verdict loss on kill -9), "interval"
// (background sync every 100ms, the default), or "never" (the OS page
// cache decides; Close still syncs). Only meaningful with
// WithLedgerDir.
func WithLedgerFsync(policy string) EngineOption {
	return func(o *engineOptions) { o.ledgerFsync = policy }
}

// Errors surfaced by Engine.Submit (re-exported from the serving
// layer so callers can errors.Is against them); backpressure is
// ErrOverloaded.
var (
	ErrEngineClosed      = engine.ErrClosed
	ErrEngineUnsupported = engine.ErrUnsupported
)

// NewEngine builds a serving engine over the DB's catalog, oracle,
// crowd pool and optimizer configuration, tracing included. It serves
// every SELECT, GROUP BY and ORDER BY included, whose grouping tasks and
// comparisons share, cache and journal like the join tasks. The engine
// draws one seed from the DB's RNG at construction, so a DB opened with
// the same WithSeed yields an engine that replays identical verdicts.
//
// The engine serves majority-voting CDB over the DB's one pool. A DB
// configured with anything it cannot serve — QualityControl, Markets,
// Faults, Reliability, Calibration or Metadata — is refused with an
// error naming each such setting, rather than served without it.
func (db *DB) NewEngine(opts ...EngineOption) (*Engine, error) {
	var dropped []string
	for _, s := range []struct {
		name string
		set  bool
	}{
		{"QualityControl", db.cfg.QualityControl},
		{"Markets", len(db.cfg.Markets) > 0},
		{"Faults", db.cfg.Faults != nil},
		{"Reliability", db.cfg.Reliability != nil},
		{"Calibration", db.cfg.Calibration},
		{"Metadata", db.cfg.Metadata},
	} {
		if s.set {
			dropped = append(dropped, s.name)
		}
	}
	if len(dropped) > 0 {
		return nil, fmt.Errorf("cdb: the engine serves majority-voting CDB over one pool and cannot honour %s", strings.Join(dropped, ", "))
	}
	var o engineOptions
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.Config
	if cfg.MaxInFlight < 0 || cfg.MaxQueue < 0 || cfg.CacheSize < 0 {
		return nil, fmt.Errorf("cdb: negative engine size (max in flight %d, max queue %d, verdict cache %d); 0 means the default", cfg.MaxInFlight, cfg.MaxQueue, cfg.CacheSize)
	}
	cfg.Catalog = db.catalog
	cfg.Oracle = db.oracle
	cfg.Pool = db.run.Pool
	cfg.Sim = db.simFunc
	cfg.Epsilon = db.cfg.Epsilon
	cfg.Redundancy = db.run.Redundancy
	cfg.Tracing = db.cfg.Tracing
	cfg.Planner = db.cfg.Planner
	cfg.Seed = db.rng.Split().Uint64()
	if o.ledgerDir != "" {
		policy, err := ledger.ParsePolicy(o.ledgerFsync)
		if err != nil {
			return nil, fmt.Errorf("cdb: %w", err)
		}
		lg, err := ledger.Open(o.ledgerDir, ledger.Options{Seed: cfg.Seed, Fsync: policy})
		if err != nil {
			return nil, fmt.Errorf("cdb: %w", err)
		}
		cfg.Journal = lg
	}
	e, err := engine.New(cfg)
	if err != nil && cfg.Journal != nil {
		_ = cfg.Journal.Close()
	}
	return e, err
}

// RoundUpdate is the per-round progress snapshot delivered to
// SubmitWithProgress observers: what the round asked the crowd, how it
// ruled, and how much of the query graph remains open. Crowd queries
// are long-lived by nature — answers trickle in over rounds — and this
// is the unit a serving layer streams to remote clients while the
// query runs.
type RoundUpdate = exec.RoundUpdate

// QueryStatus is one query's live (or recently completed) introspection
// record; see the Query* constants for the lifecycle. This is the unit
// cdbd serves on GET /v1/queries and cdbtop renders.
type QueryStatus = engine.QueryStatus

// QuerySnapshot is a point-in-time view of the engine's query registry
// (Engine.Queries): everything in flight (admission order) plus a
// bounded ring of recently completed queries (most recent first).
type QuerySnapshot = engine.IntrospectSnapshot

// Query lifecycle states as they appear in QueryStatus.State.
const (
	QueryQueued   = engine.StateQueued
	QueryRunning  = engine.StateRunning
	QueryDraining = engine.StateDraining
	QueryDone     = engine.StateDone
	QueryShared   = engine.StateShared
	QueryFailed   = engine.StateFailed
)

// LedgerStats is the engine's durability snapshot (Engine.LedgerStats):
// what the crowd-work ledger holds, what it replayed at boot, and how
// much of this session's traffic the replayed work served. Enabled is
// false (and everything zero) without WithLedgerDir.
type LedgerStats = engine.LedgerStats

// EngineStats snapshots the engine's sharing economics (Engine.Stats):
// what the fleet asked for, what actually went to the crowd, and what
// sharing saved.
type EngineStats = engine.Stats
