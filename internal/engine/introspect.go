package engine

import (
	"sync"
	"time"

	"cdb/internal/obs"
)

// Serving-tier gauges: what the engine is doing right now. Process-
// wide like every obs metric; engines add and subtract symmetrically,
// so with N engines the gauges read fleet totals.
var (
	mInFlightG = obs.Default.Gauge("cdb_engine_inflight")
	mQueuedG   = obs.Default.Gauge("cdb_engine_queued")
)

// Query lifecycle states reported by Engine.Queries. In-flight
// queries are queued, running or draining; completed ones are done,
// shared or failed.
const (
	// StateQueued: admitted, waiting for an execution slot.
	StateQueued = "queued"
	// StateRunning: holding a slot, executing crowd rounds.
	StateRunning = "running"
	// StateDraining: still running, but the engine is closing — the
	// query will finish, no new ones will be admitted after it.
	StateDraining = "draining"
	// StateDone: completed with an answer.
	StateDone = "done"
	// StateShared: served whole from an identical execution (answer
	// cache or in-flight attach) without running any rounds itself.
	StateShared = "shared"
	// StateFailed: ended with an error (cancellation, planning or
	// execution failure).
	StateFailed = "failed"
)

// QueryStatus is one query's introspection snapshot — the unit GET
// /v1/queries serves. For in-flight queries ElapsedMs counts from
// admission and the counters reflect completed rounds; for recent
// (completed) queries ElapsedMs is the total admission-to-finish time
// and the counters are final.
type QueryStatus struct {
	// ID is the engine-local dense submission sequence number.
	ID int64
	// RequestID is the serving tier's correlation ID (empty when the
	// query was submitted without one).
	RequestID string
	// Statement is the submitted CQL text.
	Statement string
	// State is one of the State* constants.
	State     string
	ElapsedMs int64
	// Rounds, Tasks and Assignments count completed crowd rounds and
	// the work they issued. Open is the valid uncolored edges still in
	// play after the last completed round (0 before the first).
	Rounds      int
	Tasks       int
	Assignments int
	Open        int
	// HITs, Coalesced and Cached are final sharing economics, set when
	// the query completes: priced HITs charged, tasks attached to
	// another query's in-flight HIT, tasks served from the verdict
	// cache.
	HITs      int
	Coalesced int
	Cached    int
	// Ledger counts tasks served from the durable crowd-work ledger —
	// paid before a restart, re-issued zero times (completed queries
	// only; always 0 without a ledger).
	Ledger int
	// Plan is the planned join order ("p2→p0→p1", "→∅" marking an
	// early exit) and PlanEarlyExits its early-exit count; empty/zero
	// when the query ran without the greedy planner.
	Plan           string
	PlanEarlyExits int
	// Err is the failure message (StateFailed only).
	Err string
}

// IntrospectSnapshot is a point-in-time view of the engine's query
// registry: everything in flight (admission order) plus a bounded ring
// of recently completed queries (most recent first).
type IntrospectSnapshot struct {
	InFlight []QueryStatus
	Recent   []QueryStatus
}

// queryEntry is one admitted query's live registry record. The entry
// is written by its own serve goroutine and read by Queries; the
// mutex covers the mutable tail.
type queryEntry struct {
	id       int64
	req      string
	stmt     string
	enqueued time.Time

	mu          sync.Mutex
	state       string
	started     time.Time
	rounds      int
	tasks       int
	assignments int
	open        int
	plan        string
	planExits   int
}

// introspection is the engine's in-flight query registry plus the
// completed-query ring buffer.
type introspection struct {
	mu       sync.Mutex
	seq      int64
	inflight map[int64]*queryEntry
	recent   []QueryStatus // ring, write position next
	next     int
	capacity int
}

// recentQueries bounds the completed-query ring buffer served by
// Engine.Queries.
const recentQueries = 64

func newIntrospection(capacity int) *introspection {
	return &introspection{
		inflight: make(map[int64]*queryEntry),
		capacity: capacity,
	}
}

// admit registers a freshly admitted query in state queued.
func (in *introspection) admit(req, stmt string) *queryEntry {
	e := &queryEntry{
		req:      req,
		stmt:     stmt,
		enqueued: time.Now(),
		state:    StateQueued,
	}
	in.mu.Lock()
	in.seq++
	e.id = in.seq
	in.inflight[e.id] = e
	in.mu.Unlock()
	mQueuedG.Add(1)
	return e
}

// start marks the entry running (it acquired an execution slot).
func (in *introspection) start(e *queryEntry) {
	e.mu.Lock()
	e.state = StateRunning
	e.started = time.Now()
	e.mu.Unlock()
	mQueuedG.Add(-1)
	mInFlightG.Add(1)
}

// setPlan stamps the planned join order on the live entry as soon as
// planning completes, so /v1/queries shows the order while the rounds
// are still running.
func (in *introspection) setPlan(e *queryEntry, order string, exits int) {
	e.mu.Lock()
	e.plan = order
	e.planExits = exits
	e.mu.Unlock()
}

// roundDone folds one completed crowd round into the live entry.
func (in *introspection) roundDone(e *queryEntry, rounds, tasksTotal, asksTotal, open int) {
	e.mu.Lock()
	e.rounds = rounds
	e.tasks = tasksTotal
	e.assignments = asksTotal
	e.open = open
	e.mu.Unlock()
}

// finish retires the entry into the recent ring with its final state.
// fill (nil-safe) stamps the completion-only fields (HITs, sharing
// splits, error) onto the retired status.
func (in *introspection) finish(e *queryEntry, state string, fill func(*QueryStatus)) {
	now := time.Now()
	e.mu.Lock()
	wasRunning := e.state == StateRunning
	st := QueryStatus{
		ID:          e.id,
		RequestID:   e.req,
		Statement:   e.stmt,
		State:       state,
		ElapsedMs:   now.Sub(e.enqueued).Milliseconds(),
		Rounds:      e.rounds,
		Tasks:       e.tasks,
		Assignments: e.assignments,

		Plan:           e.plan,
		PlanEarlyExits: e.planExits,
	}
	e.mu.Unlock()
	if wasRunning {
		mInFlightG.Add(-1)
	} else {
		mQueuedG.Add(-1)
	}
	if fill != nil {
		fill(&st)
	}
	in.mu.Lock()
	delete(in.inflight, e.id)
	if len(in.recent) < in.capacity {
		in.recent = append(in.recent, st)
		in.next = len(in.recent) % in.capacity
	} else {
		in.recent[in.next] = st
		in.next = (in.next + 1) % in.capacity
	}
	in.mu.Unlock()
}

// snapshot captures the registry. draining repaints running queries as
// draining — the engine sets it once Close has begun, so an operator
// watching /v1/queries sees the drain progress.
func (in *introspection) snapshot(draining bool) IntrospectSnapshot {
	now := time.Now()
	in.mu.Lock()
	entries := make([]*queryEntry, 0, len(in.inflight))
	for _, e := range in.inflight {
		entries = append(entries, e)
	}
	recent := make([]QueryStatus, 0, len(in.recent))
	// Ring order: next-1 is the most recently retired.
	for i := 0; i < len(in.recent); i++ {
		idx := (in.next - 1 - i + in.capacity) % in.capacity
		if idx < len(in.recent) {
			recent = append(recent, in.recent[idx])
		}
	}
	in.mu.Unlock()

	snap := IntrospectSnapshot{Recent: recent}
	for _, e := range entries {
		e.mu.Lock()
		st := QueryStatus{
			ID:          e.id,
			RequestID:   e.req,
			Statement:   e.stmt,
			State:       e.state,
			ElapsedMs:   now.Sub(e.enqueued).Milliseconds(),
			Rounds:      e.rounds,
			Tasks:       e.tasks,
			Assignments: e.assignments,
			Open:        e.open,

			Plan:           e.plan,
			PlanEarlyExits: e.planExits,
		}
		e.mu.Unlock()
		if draining && st.State == StateRunning {
			st.State = StateDraining
		}
		snap.InFlight = append(snap.InFlight, st)
	}
	sortStatuses(snap.InFlight)
	return snap
}

// sortStatuses orders by submission sequence (oldest first) — a
// deterministic, operator-friendly order for the live table.
func sortStatuses(s []QueryStatus) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
