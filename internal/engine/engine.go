// Package engine serves concurrent CQL queries over one shared crowd.
//
// A CDB instance executes one query at a time; a crowd platform serves
// many requesters at once, and concurrent queries over the same tables
// keep asking the crowd the same questions. The engine admits N
// queries in flight and makes the overlap pay for itself three ways:
//
//   - HIT coalescing: crowd tasks are identified by canonical content
//     (predicate + cell pair, sides ordered), identical tasks from
//     concurrent queries are dispatched once and the verdict fanned
//     out to every subscriber (coalesce.go).
//   - A bounded LRU verdict cache that survives across queries, so a
//     task asked again minutes later costs nothing (coalesce.go).
//   - A shared similarity-join cache plus session-level interned token
//     dictionary, so planning repeated table pairs tokenizes and
//     indexes once (simcache.go).
//
// Sharing never changes answers: every verdict is a pure function of
// (engine seed, task content, redundancy), so a query's rows are
// bit-identical whether it ran alone or raced the whole fleet, and
// per-query Stats charge the full redundancy either way (the engine's
// own counters report the savings). Admission control bounds in-flight
// work and queue depth; each query keeps its own context, tracer and
// Report.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/plan"
	"cdb/internal/reqid"
	"cdb/internal/sim"
	"cdb/internal/table"
)

// Engine-level metrics (process-wide, across all engines).
var (
	mSubmitted   = obs.Default.Counter("cdb_engine_queries_submitted_total")
	mCompleted   = obs.Default.Counter("cdb_engine_queries_completed_total")
	mRejected    = obs.Default.Counter("cdb_engine_queries_rejected_total")
	mQueryShared = obs.Default.Counter("cdb_engine_queries_shared_total")
	// Phase-duration histograms for the engine-owned phases; the
	// executor owns the round/issue ones (cdb_exec_phase_*).
	mPhaseParse = obs.Default.Histogram("cdb_engine_phase_parse_seconds", obs.DurationBuckets)
	mPhasePlan  = obs.Default.Histogram("cdb_engine_phase_plan_seconds", obs.DurationBuckets)
)

// Sentinel errors returned by Submit.
var (
	// ErrClosed means the engine was shut down.
	ErrClosed = errors.New("engine: closed")
	// ErrOverloaded is backpressure: in-flight and queued slots are all
	// taken. The caller should retry later (or shed the query).
	ErrOverloaded = errors.New("engine: overloaded")
	// ErrUnsupported marks statements the shared serving path cannot
	// isolate; run those through DB.Exec instead.
	ErrUnsupported = errors.New("engine: unsupported statement")
)

// Config assembles an engine. Catalog, Oracle and Pool are required
// and must not be mutated while the engine serves (the catalog is read
// by concurrent planners).
type Config struct {
	Catalog *table.Catalog
	Oracle  exec.Oracle
	Pool    *crowd.Pool

	// Sim and Epsilon configure planning (similarity estimator and
	// pruning threshold); zero values mean Gram2Jaccard and 0.3.
	Sim     sim.Func
	Epsilon float64
	// Redundancy is the answers collected per task (default 5).
	Redundancy int
	// Seed drives every simulated verdict; equal seeds replay equal
	// answers regardless of concurrency or submission order.
	Seed uint64

	// MaxInFlight bounds concurrently executing queries (default 8).
	MaxInFlight int
	// MaxQueue bounds queries queued behind the in-flight set; a full
	// queue makes Submit fail fast with ErrOverloaded (default 64).
	MaxQueue int
	// CacheSize bounds the shared verdict cache in entries
	// (default 4096).
	CacheSize int
	// ResultCacheSize bounds the query-level answer cache in entries
	// (default 256; negative disables). Determinism makes whole-answer
	// sharing safe: a query's rows are a pure function of (engine
	// seed, canonical statement), so a cached answer is bit-identical
	// to a fresh execution. In-flight identical statements coalesce
	// onto one execution the same way individual HITs do.
	ResultCacheSize int
	// Tracing attaches a per-query obs.Tracer; each Result then
	// carries its own span tree.
	Tracing bool
	// Planner turns on the greedy multi-join planner: unbudgeted
	// whole-statement SELECTs execute in the planner's cheapest-first
	// predicate order (answers stay bit-identical — verdicts are
	// content-pure), and each Result carries its executed Plan. Explain
	// works either way.
	Planner bool
	// Journal, when set, makes paid crowd work durable: every resolved
	// verdict, executed statement and completed answer is appended, and
	// New replays the journal into the verdict, sim-join and answer
	// caches before the first query is admitted. The engine owns the
	// journal and closes it in Close, after the last query drains. The
	// journal must have been opened under this same Seed (ledger.Open
	// validates).
	Journal Journal
}

// Engine is a concurrent query-serving layer over one CDB catalog and
// crowd. Safe for concurrent use; create with New, shut down with
// Close.
type Engine struct {
	cfg   Config
	src   Source // catalog + oracle + planning through the shared join cache
	coal  *coalescer
	joins *joinCache
	intr  *introspection

	slots chan struct{} // executing queries
	admit chan struct{} // executing + queued (admission tickets)

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	// Query-level sharing: completed answers by canonical statement,
	// plus in-flight executions identical submissions attach to.
	resMu       sync.Mutex
	results     *lruCache[*Answer]
	resInflight map[string]*queryFlight

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	qCached   atomic.Int64 // queries served from the answer cache
	qAttached atomic.Int64 // queries attached to an identical in-flight one
}

// queryFlight is one executing statement identical submissions wait
// on; ans stays nil when the owner failed (waiters then run
// themselves).
type queryFlight struct {
	done chan struct{}
	ans  *Answer
}

// New builds an engine from the config.
func New(cfg Config) (*Engine, error) {
	if cfg.Catalog == nil || cfg.Oracle == nil || cfg.Pool == nil {
		return nil, fmt.Errorf("engine: Config.Catalog, Oracle and Pool are required")
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.3
	}
	if cfg.Redundancy <= 0 {
		cfg.Redundancy = 5
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	joins := newJoinCache()
	e := &Engine{
		cfg: cfg,
		src: Source{
			Catalog:    cfg.Catalog,
			Oracle:     cfg.Oracle,
			PlanConfig: exec.PlanConfig{Sim: cfg.Sim, Epsilon: cfg.Epsilon, Joiner: joins.Join},
		},
		coal:        newCoalescer(cfg.Seed, cfg.Pool, cfg.CacheSize, cfg.Journal),
		joins:       joins,
		intr:        newIntrospection(recentQueries),
		slots:       make(chan struct{}, cfg.MaxInFlight),
		admit:       make(chan struct{}, cfg.MaxInFlight+cfg.MaxQueue),
		resInflight: make(map[string]*queryFlight),
	}
	if cfg.ResultCacheSize >= 0 {
		size := cfg.ResultCacheSize
		if size == 0 {
			size = 256
		}
		e.results = newLRU[*Answer](size)
	}
	if cfg.Journal != nil {
		// Warm before the first Submit can run: replayed crowd work
		// must be visible to the very first query, or it re-pays.
		e.warmFromJournal()
	}
	return e, nil
}

// Handle is the pending result of one submitted query (the public
// cdb.Future).
type Handle struct {
	query string
	done  chan struct{}
	ans   *Answer
	err   error
}

// Query returns the submitted CQL text.
func (h *Handle) Query() string { return h.query }

// Done exposes the completion signal for select loops.
func (h *Handle) Done() <-chan struct{} { return h.done }

// wait blocks until the query completes (or ctx expires) and returns
// its answer.
func (h *Handle) wait(ctx context.Context) (*Answer, error) {
	select {
	case <-h.done:
		return h.ans, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result blocks until the query completes (or ctx expires) and
// returns its Result. Waiting with an expired context does not cancel
// the query itself — cancel the Submit context for that.
func (h *Handle) Result(ctx context.Context) (*Result, error) {
	ans, err := h.wait(ctx)
	if err != nil {
		return nil, err
	}
	return ans.Result(), nil
}

// Submit admits one CQL SELECT for concurrent execution and returns
// immediately with a Handle. ctx cancels the query (honored at crowd
// round boundaries, like DB.ExecContext). Submit itself never blocks:
// a full queue returns ErrOverloaded.
//
// Only SELECT is served — DDL and collection statements mutate the
// catalog and belong on the exclusive DB.Exec path. GROUP BY and ORDER
// BY are served: each is one more run of the pipeline.
func (e *Engine) Submit(ctx context.Context, query string) (*Handle, error) {
	return e.submit(ctx, query, nil)
}

// SubmitWithProgress is Submit with a per-round progress hook: onRound
// is invoked at the end of every completed crowd round with the
// executor's RoundUpdate snapshot, so the number of invocations always
// equals the final Stats.Rounds (rounds discarded by cancellation never
// report). Feature-pair rule (DESIGN.md §17's table, pinned by
// TestFeaturePairRules): progress × answer cache executes for real — a
// cached answer has no rounds to report, so a progress query bypasses
// the whole-answer cache and in-flight attach — but still shares HITs
// and verdicts through the coalescer, so its rows and Stats are
// bit-identical to an unobserved Submit. onRound runs on the query's
// goroutine; hand off to a channel if the consumer can stall.
func (e *Engine) SubmitWithProgress(ctx context.Context, query string, onRound func(exec.RoundUpdate)) (*Handle, error) {
	return e.submit(ctx, query, onRound)
}

// servable parses query down to a SELECT the shared serving path can
// isolate.
func servable(query string) (*cql.Select, error) {
	parseStart := time.Now()
	st, err := cql.Parse(query)
	mPhaseParse.Observe(time.Since(parseStart).Seconds())
	if err != nil {
		return nil, err
	}
	s, ok := st.(*cql.Select)
	if !ok {
		return nil, fmt.Errorf("%w: %T is not served concurrently; use DB.Exec", ErrUnsupported, st)
	}
	return s, nil
}

// submit is the shared admission path behind Submit and
// SubmitWithProgress.
func (e *Engine) submit(ctx context.Context, query string, progress func(exec.RoundUpdate)) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s, err := servable(query)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	select {
	case e.admit <- struct{}{}:
	default:
		e.mu.Unlock()
		e.rejected.Add(1)
		mRejected.Inc()
		return nil, ErrOverloaded
	}
	e.wg.Add(1)
	e.mu.Unlock()

	e.submitted.Add(1)
	mSubmitted.Inc()
	h := &Handle{query: query, done: make(chan struct{})}
	entry := e.intr.admit(reqid.From(ctx).RequestID, query)
	go e.serve(ctx, s, h, progress, entry)
	return h, nil
}

// serve runs one admitted query: wait for an execution slot, share
// whole answers with identical statements (cache or in-flight
// attach), otherwise send it through the pipeline with the shared
// join cache as joiner and the coalescer as resolver.
func (e *Engine) serve(ctx context.Context, s *cql.Select, h *Handle, progress func(exec.RoundUpdate), entry *queryEntry) {
	defer e.wg.Done()
	// Deferred calls run last-registered first: the admission ticket
	// returns before h.done closes, so a caller woken by its answer
	// never finds its own ticket still held when it submits again.
	defer close(h.done)
	defer func() { <-e.admit }()

	// Retire the registry entry with whatever final state the paths
	// below chose; deferred last so it runs before h.done closes and a
	// waiter can observe the query as still in flight.
	finState := StateFailed
	var finFill func(*QueryStatus)
	defer func() {
		if finState == StateFailed && finFill == nil && h.err != nil {
			msg := h.err.Error()
			finFill = func(st *QueryStatus) { st.Err = msg }
		}
		e.intr.finish(entry, finState, finFill)
	}()

	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		h.err = ctx.Err()
		return
	}
	defer func() { <-e.slots }()
	e.intr.start(entry)

	// Query-level sharing. Safe only because answers are deterministic
	// in the canonical statement: the cached Answer is bit-identical
	// to what this execution would produce. An owner always holds an
	// execution slot before registering, so waiting cannot deadlock.
	var fl *queryFlight
	key := s.String()
	if e.results != nil && progress == nil {
		for {
			e.resMu.Lock()
			if ans, ok := e.results.get(key); ok {
				e.resMu.Unlock()
				e.shareAnswer(h, ans, entry.req, &e.qCached)
				finState = StateShared
				return
			}
			owner, ok := e.resInflight[key]
			if !ok {
				fl = &queryFlight{done: make(chan struct{})}
				e.resInflight[key] = fl
				e.resMu.Unlock()
				break
			}
			e.resMu.Unlock()
			select {
			case <-owner.done:
			case <-ctx.Done():
				h.err = ctx.Err()
				return
			}
			if owner.ans != nil {
				e.shareAnswer(h, owner.ans, entry.req, &e.qAttached)
				finState = StateShared
				return
			}
			// The owner failed (its context died, or a planning
			// error): take over and execute ourselves.
		}
		defer func() {
			e.resMu.Lock()
			if fl.ans != nil {
				e.results.put(key, fl.ans)
			}
			delete(e.resInflight, key)
			e.resMu.Unlock()
			close(fl.done)
		}()
	}

	var tr *obs.Tracer
	if e.cfg.Tracing {
		tr = obs.NewTracer(nil)
		tr.SetRequestID(entry.req)
		root := tr.Begin(obs.SpanQuery)
		tr.Mutate(root, func(sp *obs.Span) { sp.Query = h.query })
		defer func() {
			tr.End(root)
			if h.ans != nil {
				h.ans.Trace = tr.Finish()
			}
		}()
	}

	req := e.request(s)
	req.Exec = exec.Options{
		Redundancy: e.cfg.Redundancy,
		Quality:    exec.MajorityVoting,
		Pool:       e.cfg.Pool,
		Resolver:   e.coal,
		Trace:      tr,
		// The registry sees every completed round regardless of
		// whether the submitter asked for progress; the caller's
		// hook (if any) still runs on the query goroutine afterwards.
		Progress: func(u exec.RoundUpdate) {
			e.intr.roundDone(entry, u.Round, u.TasksTotal, u.AssignmentsTotal, u.Open)
			if progress != nil {
				progress(u)
			}
		},
	}
	req.Planned = func(_ *exec.Plan, d *plan.Decision) {
		if e.cfg.Journal != nil {
			// The statement is planable against the live catalog: log
			// it so the next boot replans it and re-primes the
			// sim-join cache.
			e.cfg.Journal.AppendStatement(key)
		}
		if d != nil {
			e.intr.setPlan(entry, d.JoinOrder(), d.EarlyExits())
		}
	}
	ans, err := RunSelect(ctx, req)
	if err != nil {
		h.err = err
		return
	}
	if fl != nil {
		// What the cache and attached waiters share is a copy made before
		// this handle's fields are set: the request id here, the span
		// tree in the deferred Finish above.
		shared := *ans
		fl.ans = &shared
	}
	ans.RequestID = entry.req
	h.ans = ans
	if e.cfg.Journal != nil {
		e.journalAnswer(key, ans)
	}
	e.completed.Add(1)
	mCompleted.Inc()
	finState = StateDone
	rep := ans.Report
	finFill = func(st *QueryStatus) {
		st.Rounds = rep.Metrics.Rounds
		st.Tasks = rep.Metrics.Tasks
		st.Assignments = rep.Assignments
		st.HITs = rep.HITs
		st.Coalesced = rep.Coalesced
		st.Cached = rep.CachedTasks
		st.Ledger = rep.LedgerTasks
	}
}

// shareAnswer serves h from a completed identical execution. The
// Answer is copied shallowly so per-handle fields stay isolated
// (shared answers carry no trace — nothing executed); rows and the
// Report are shared read-only. The owning query's Report already
// charges the full redundancy, so subscribers reusing it keep the
// virtual-chargeback invariant, and the engine's savings counters
// absorb the crowd work the share avoided. how is the sharing counter
// (cached or attached) the serve is booked under.
func (e *Engine) shareAnswer(h *Handle, ans *Answer, req string, how *atomic.Int64) {
	cp := *ans
	cp.Trace = nil
	cp.RequestID = req
	h.ans = &cp
	how.Add(1)
	mQueryShared.Inc()
	e.completed.Add(1)
	mCompleted.Inc()
	e.coal.saved.Add(int64(ans.Report.Assignments))
	mCoalSaved.Add(int64(ans.Report.Assignments))
}

// PlannerEnabled reports whether served SELECTs execute a planned order
// (and therefore whether streams carry a plan event).
func (e *Engine) PlannerEnabled() bool { return e.cfg.Planner }

// Explain plans query without executing it and returns the wire-ready
// plan: join order, per-step predicted candidate edges, and early-exit
// points. It issues zero crowd assignments: planning reads the
// instantiated query graph (built through the shared sim-join cache,
// so repeated table pairs are free) and never touches the coalescer.
// query may be a SELECT or an EXPLAIN SELECT; anything else fails with
// ErrUnsupported — the typed 400 of POST /v1/explain.
func (e *Engine) Explain(query string) (*plan.Explained, error) {
	st, err := cql.Parse(query)
	if err != nil {
		return nil, err
	}
	s, err := Plannable(st)
	if err != nil {
		return nil, err
	}
	return e.request(s).Explain()
}

// request is what every run of s on this engine shares — and all that
// decides its order and bind; serve adds the per-query executor options
// and the hook.
func (e *Engine) request(s *cql.Select) *SelectRequest {
	return &SelectRequest{Source: e.src, Stmt: s, Planner: e.cfg.Planner}
}

// Queries snapshots the engine's query registry: every in-flight
// query (admission order) with its live state, elapsed time and
// completed-round counters, plus the bounded ring of recently
// completed queries (most recent first). Once Close has begun, running
// queries report as draining.
func (e *Engine) Queries() IntrospectSnapshot {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	return e.intr.snapshot(closed)
}

// Close stops admission, waits for every in-flight query to finish,
// then flushes, syncs and closes the journal (when configured) — so
// the last verdicts of the drain are durable before the process can
// exit. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.wg.Wait()
	if e.cfg.Journal != nil {
		_ = e.cfg.Journal.Close()
	}
}

// Stats is a snapshot of the engine's sharing economics.
type Stats struct {
	Submitted int64 // queries admitted
	Completed int64 // queries finished successfully
	Rejected  int64 // queries shed by backpressure

	QueriesCached   int64 // whole queries served from the answer cache
	QueriesAttached int64 // whole queries attached to an identical in-flight one

	TasksResolved int64 // crowd tasks served
	Coalesced     int64 // tasks attached to an in-flight HIT
	Cached        int64 // tasks served from the verdict cache
	LedgerHits    int64 // tasks served from replayed ledger verdicts

	AssignmentsIssued int64 // worker answers actually simulated
	AssignmentsSaved  int64 // answers avoided by sharing
	HITsIssued        int   // priced HITs actually issued
	HITsSaved         int   // priced HITs avoided by sharing

	JoinsComputed int64 // similarity joins executed
	JoinsShared   int64 // similarity joins reused from the cache

	CacheEntries int // live verdict-cache entries
}

// Stats snapshots the engine counters. HITs are priced with the
// default batching (10 tasks per HIT).
func (e *Engine) Stats() Stats {
	issued := e.coal.issued.Load()
	saved := e.coal.saved.Load()
	e.coal.mu.Lock()
	entries := e.coal.cache.len()
	e.coal.mu.Unlock()
	return Stats{
		Submitted: e.submitted.Load(),
		Completed: e.completed.Load(),
		Rejected:  e.rejected.Load(),

		QueriesCached:   e.qCached.Load(),
		QueriesAttached: e.qAttached.Load(),

		TasksResolved: e.coal.resolved.Load(),
		Coalesced:     e.coal.coalesced.Load(),
		Cached:        e.coal.cached.Load(),
		LedgerHits:    e.coal.ledgerHit.Load(),

		AssignmentsIssued: issued,
		AssignmentsSaved:  saved,
		HITsIssued:        crowd.DefaultPricing.HITs(int(issued)),
		HITsSaved:         crowd.DefaultPricing.HITs(int(saved)),

		JoinsComputed: e.joins.computed.Load(),
		JoinsShared:   e.joins.shared.Load(),

		CacheEntries: entries,
	}
}
