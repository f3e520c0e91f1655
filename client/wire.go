// Package client is the typed Go client for cdbd, CDB's HTTP serving
// front-end. It speaks the /v1 JSON wire protocol: blocking queries
// (Query), round-by-round streaming of long-lived crowd queries
// (QueryStream), and catalog introspection (Tables). Errors come back
// typed — an *APIError unwraps to the cdb sentinels (cdb.ErrOverloaded,
// cdb.ErrUnknownTable, *cdb.ParseError), so remote callers branch with
// errors.Is/As exactly like embedded ones.
//
// This file is the wire schema, shared verbatim with internal/server:
// both sides marshal these structs, so a field rename is caught by the
// golden-file tests rather than by a confused peer.
package client

import "cdb"

// QueryRequest is the body of POST /v1/query and /v1/query/stream.
type QueryRequest struct {
	// Query is one CQL SELECT statement.
	Query string `json:"query"`
	// TimeoutMs optionally bounds execution server-side; past it the
	// query degrades gracefully and returns its partial result
	// (Stats.Partial) exactly like DB.ExecContext with a deadline.
	// Zero means no server-side deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// TablesResponse is the body of GET /v1/tables.
type TablesResponse struct {
	Tables []string `json:"tables"`
}

// Correlation headers. Every response carries HeaderRequestID; requests
// may supply it to name the query across client logs, server logs,
// trace spans and the query log. HeaderTraceParent is the W3C
// trace-context header; the server joins an incoming trace (minting a
// child span ID) or starts a fresh one.
const (
	HeaderRequestID   = "X-CDB-Request-ID"
	HeaderTraceParent = "traceparent"
)

// QueryInfo is one query's introspection record in GET /v1/queries —
// the wire form of cdb.QueryStatus. States are the cdb.Query*
// constants: queued, running, draining, done, shared, failed.
type QueryInfo struct {
	// ID is the engine-local submission sequence number.
	ID int64 `json:"id"`
	// RequestID is the correlation ID the query ran under.
	RequestID string `json:"request_id,omitempty"`
	// Query is the submitted CQL text.
	Query string `json:"query"`
	// State is the lifecycle state at snapshot time.
	State string `json:"state"`
	// ElapsedMs counts from admission (total time once completed).
	ElapsedMs int64 `json:"elapsed_ms"`
	// Rounds..Open mirror cdb.QueryStatus: completed crowd rounds, the
	// work they issued, and the edges still open after the last round.
	Rounds      int `json:"rounds"`
	Tasks       int `json:"tasks,omitempty"`
	Assignments int `json:"assignments,omitempty"`
	Open        int `json:"open,omitempty"`
	// HITs, Coalesced and Cached are final sharing economics (completed
	// queries only).
	HITs      int `json:"hits,omitempty"`
	Coalesced int `json:"coalesced,omitempty"`
	Cached    int `json:"cached,omitempty"`
	// Ledger counts tasks served from the durable crowd-work ledger —
	// paid for before a restart, re-issued zero times (completed
	// queries only; absent when the server runs without -ledger-dir).
	Ledger int `json:"ledger,omitempty"`
	// Plan is the planned join order ("p2→p0→p1", with "→∅" marking a
	// plan-time early exit) and PlanEarlyExits its early-exit count;
	// absent when the server runs without the greedy planner.
	Plan           string `json:"plan,omitempty"`
	PlanEarlyExits int    `json:"plan_early_exits,omitempty"`
	// Error is the failure message (state "failed" only).
	Error string `json:"error,omitempty"`
}

// LedgerInfo is the server-wide durability summary on GET /v1/queries:
// what the crowd-work ledger (one write-ahead log) holds, what it
// replayed at boot, and how much of this session's traffic the
// replayed work served.
type LedgerInfo struct {
	// Replayed is the records applied from disk at boot; TornTruncated
	// counts torn WAL tails cut at the last valid CRC frame on the way.
	Replayed      int64 `json:"replayed"`
	TornTruncated int64 `json:"torn_truncated,omitempty"`
	// Appended counts records logged since boot.
	Appended int64 `json:"appended"`
	// Hits is the session traffic served from replayed verdicts — paid
	// crowd work that was not re-issued.
	Hits int64 `json:"hits"`
	// Verdicts / Statements / Answers are the durable contents.
	Verdicts   int `json:"verdicts"`
	Statements int `json:"statements"`
	Answers    int `json:"answers"`
}

// QueriesResponse is the body of GET /v1/queries: the live query table
// (admission order) plus recently completed queries (most recent
// first). Ledger is present only when the server runs a crowd-work
// ledger (-ledger-dir).
type QueriesResponse struct {
	InFlight []QueryInfo `json:"in_flight"`
	Recent   []QueryInfo `json:"recent"`
	Ledger   *LedgerInfo `json:"ledger,omitempty"`
}

// Error codes carried by ErrorPayload.Code. They are the wire-stable
// names of the library's typed errors.
const (
	CodeParse        = "parse_error"   // CQL syntax error (Offset/Near set)
	CodeUnsupported  = "unsupported"   // statement the engine cannot serve
	CodeUnknownTable = "unknown_table" // FROM references a missing table
	CodeOverloaded   = "overloaded"    // admission control shed the query; retry later
	CodeDraining     = "draining"      // server is shutting down gracefully
	CodeTimeout      = "timeout"       // request deadline elapsed before completion
	CodeBadRequest   = "bad_request"   // malformed request body
	CodeInternal     = "internal"      // unexpected execution failure
)

// ErrorPayload is the JSON body of every non-2xx response (and of
// terminal "error" stream events).
type ErrorPayload struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Offset and Near locate a CQL syntax error in the submitted
	// statement (CodeParse only). Offset -1 means no single position.
	Offset *int   `json:"offset,omitempty"`
	Near   string `json:"near,omitempty"`
	// RetryAfterMs mirrors the Retry-After header on 429/503 so
	// non-HTTP-aware callers see the backoff hint too.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Stream event types for POST /v1/query/stream. The stream is NDJSON:
// one StreamEvent per line — at most one "plan" event first (servers
// running the greedy planner), zero or more "round" events in round
// order, terminated by exactly one "result" or "error" event. Readers
// must skip unknown event types, which is how pre-plan clients stay
// compatible.
const (
	EventPlan   = "plan"
	EventRound  = "round"
	EventResult = "result"
	EventError  = "error"
)

// StreamEvent is one NDJSON line of a streamed query.
type StreamEvent struct {
	Type string `json:"type"`
	// Plan carries the join order the rounds will follow (Type "plan",
	// emitted before any round on planner-enabled servers).
	Plan *cdb.Plan `json:"plan,omitempty"`
	// Round carries the per-round progress snapshot (Type "round").
	Round *cdb.RoundUpdate `json:"round,omitempty"`
	// Result carries the final outcome (Type "result").
	Result *cdb.Result `json:"result,omitempty"`
	// Error carries the terminal failure (Type "error").
	Error *ErrorPayload `json:"error,omitempty"`
}
