// Package server is cdbd's HTTP front-end over cdb.Engine: the layer
// that turns the in-process concurrent query engine into a deployable
// network service. It speaks the /v1 JSON wire protocol defined in
// package client (the structs are shared, so the two sides cannot
// drift), maps the engine's admission control onto HTTP semantics —
// ErrOverloaded becomes 429 with Retry-After, a draining server
// becomes 503 — and streams long-lived crowd queries round by round
// over NDJSON instead of blocking, because crowd answers trickle in
// over minutes and a remote caller deserves to watch them land.
//
// Graceful drain: Drain stops admission (every new /v1/query* request
// is shed with 503 + Retry-After) and waits for in-flight queries to
// finish, so every accepted query gets its response — including
// partial results of queries cut short by their own deadlines — before
// the process exits.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"cdb"
	"cdb/client"
	"cdb/internal/exec"
	"cdb/internal/obs"
	"cdb/internal/reqid"
)

// Server metrics. Requests are counted overall and by status class
// (429 split out from the rest of 4xx because shed-by-backpressure and
// caller-error are different operational signals), and each endpoint
// gets its own end-to-end latency histogram — the RED triple an SLO is
// written against.
var (
	mRequests  = obs.Default.Counter("cdb_server_requests_total")
	mReq2xx    = obs.Default.Counter("cdb_server_requests_2xx_total")
	mReq4xx    = obs.Default.Counter("cdb_server_requests_4xx_total")
	mReq429    = obs.Default.Counter("cdb_server_requests_429_total")
	mReq5xx    = obs.Default.Counter("cdb_server_requests_5xx_total")
	mQueries   = obs.Default.Counter("cdb_server_queries_total")
	mStreams   = obs.Default.Counter("cdb_server_streams_total")
	mExplains  = obs.Default.Counter("cdb_server_explains_total")
	mShed      = obs.Default.Counter("cdb_server_shed_total")
	mDrainShed = obs.Default.Counter("cdb_server_drain_shed_total")

	mLatQuery   = obs.Default.Histogram("cdb_server_latency_query_seconds", obs.DurationBuckets)
	mLatStream  = obs.Default.Histogram("cdb_server_latency_stream_seconds", obs.DurationBuckets)
	mLatExplain = obs.Default.Histogram("cdb_server_latency_explain_seconds", obs.DurationBuckets)
	mLatTables  = obs.Default.Histogram("cdb_server_latency_tables_seconds", obs.DurationBuckets)
	mLatQueries = obs.Default.Histogram("cdb_server_latency_queries_seconds", obs.DurationBuckets)
	mLatOther   = obs.Default.Histogram("cdb_server_latency_other_seconds", obs.DurationBuckets)
)

func countStatus(code int) {
	switch {
	case code < 300:
		mReq2xx.Inc()
	case code == http.StatusTooManyRequests:
		mReq429.Inc()
	case code >= 400 && code < 500:
		mReq4xx.Inc()
	case code >= 500:
		mReq5xx.Inc()
	}
}

func latencyFor(path string) *obs.Histogram {
	switch path {
	case "/v1/query":
		return mLatQuery
	case "/v1/query/stream":
		return mLatStream
	case "/v1/explain":
		return mLatExplain
	case "/v1/tables":
		return mLatTables
	case "/v1/queries":
		return mLatQueries
	}
	return mLatOther
}

// Config assembles a Server.
type Config struct {
	// DB provides catalog introspection (/v1/tables). Required.
	DB *cdb.DB
	// Engine serves the queries. Required; the server owns neither its
	// construction nor (except via Drain) its shutdown ordering — but
	// Drain does call Engine.Close.
	Engine *cdb.Engine
	// Logger receives one line per request; nil discards.
	Logger *log.Logger
	// RetryAfter is the backoff hint attached to 429 and 503 responses
	// (header and payload). Zero means 1s.
	RetryAfter time.Duration
	// QueryLog receives one JSONL line per completed query at or above
	// its slowness threshold; nil disables.
	QueryLog *QueryLog
}

// Server is the HTTP serving layer. Create with New, expose with
// Handler, shut down with Drain.
type Server struct {
	db         *cdb.DB
	engine     *cdb.Engine
	log        *log.Logger
	retryAfter time.Duration
	qlog       *QueryLog
	mux        *http.ServeMux
	draining   atomic.Bool
}

// New builds a server over an opened DB and its Engine.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.DB and Config.Engine are required")
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(nopWriter{}, "", 0)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		db:         cfg.DB,
		engine:     cfg.Engine,
		log:        cfg.Logger,
		retryAfter: cfg.RetryAfter,
		qlog:       cfg.QueryLog,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/query/stream", s.handleStream)
	s.mux.HandleFunc("/v1/explain", s.handleExplain)
	s.mux.HandleFunc("/v1/tables", s.handleTables)
	s.mux.HandleFunc("/v1/queries", s.handleQueries)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	debug := obs.NewServeMux(obs.Default)
	s.mux.Handle("/metrics", debug)
	s.mux.Handle("/debug/", debug)
	return s, nil
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// Handler returns the server's root handler. It wraps every route in
// the correlation middleware: the request's X-CDB-Request-ID is
// sanitized (or minted when absent), echoed on the response, and
// attached to the request context so it reaches the engine, every trace
// span, and the query log. An incoming W3C traceparent is continued
// (same trace ID, fresh parent span ID) or a new trace is started; the
// resulting traceparent is echoed too. The middleware also keeps the
// RED accounting: request counters by status class and per-endpoint
// end-to-end latency histograms.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		start := time.Now()
		cor := reqid.Correlation{RequestID: reqid.Sanitize(r.Header.Get(client.HeaderRequestID))}
		if cor.RequestID == "" {
			cor.RequestID = reqid.New()
		}
		if tp, ok := reqid.ParseTraceParent(r.Header.Get(client.HeaderTraceParent)); ok {
			cor.TraceParent = tp.Child().String()
		} else {
			cor.TraceParent = reqid.NewTraceParent().String()
		}
		w.Header().Set(client.HeaderRequestID, cor.RequestID)
		w.Header().Set(client.HeaderTraceParent, cor.TraceParent)
		r = r.WithContext(reqid.With(r.Context(), cor))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		countStatus(sw.status)
		latencyFor(r.URL.Path).Observe(elapsed.Seconds())
		s.log.Printf("%s %s %s -> %d (%s)", cor.RequestID, r.Method, r.URL.Path, sw.status, elapsed.Round(time.Millisecond))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming works through the
// logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Drain gracefully stops the server's query side: new submissions are
// shed with 503 immediately, and Drain blocks until every in-flight
// and queued query has finished — their handlers then write complete
// (or deadline-partial) responses. Call before http.Server.Shutdown,
// which in turn waits for those final writes. Idempotent.
func (s *Server) Drain() {
	if s.draining.Swap(true) {
		return
	}
	s.log.Printf("drain: admission stopped, waiting for in-flight queries")
	s.engine.Close()
	s.log.Printf("drain: in-flight queries finished")
}

// readRequest decodes a QueryRequest, bounding the body.
func readRequest(r *http.Request) (client.QueryRequest, error) {
	var req client.QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %v", err)
	}
	if req.Query == "" {
		return req, fmt.Errorf("empty query")
	}
	return req, nil
}

// queryContext applies the request's server-side deadline.
func queryContext(r *http.Request, req client.QueryRequest) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		return context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
	}
	return ctx, func() {}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, &client.ErrorPayload{Code: client.CodeBadRequest, Message: "POST only"})
		return
	}
	mQueries.Inc()
	if s.shedIfDraining(w) {
		return
	}
	req, err := readRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, &client.ErrorPayload{Code: client.CodeBadRequest, Message: err.Error()})
		return
	}
	ctx, cancel := queryContext(r, req)
	defer cancel()
	start := time.Now()
	fut, err := s.engine.Submit(ctx, req.Query)
	if err != nil {
		s.writeMappedError(w, err)
		s.logQuery("query", r, req.Query, nil, err, time.Since(start))
		return
	}
	// Wait on a background context: the Submit ctx still governs the
	// query (deadline → graceful partial result at a round boundary,
	// disconnect → cancellation), but waiting must survive the deadline
	// to collect that partial result instead of racing it.
	res, err := fut.Result(context.Background())
	if err != nil {
		s.writeMappedError(w, err)
		s.logQuery("query", r, req.Query, nil, err, time.Since(start))
		return
	}
	s.writeJSON(w, http.StatusOK, res)
	s.logQuery("query", r, req.Query, res, nil, time.Since(start))
}

// logQuery records one completed query into the structured query log,
// deriving the terminal status and economics from the result or error.
func (s *Server) logQuery(endpoint string, r *http.Request, query string, res *cdb.Result, err error, latency time.Duration) {
	entry := QueryLogEntry{
		RequestID: reqid.From(r.Context()).RequestID,
		Endpoint:  endpoint,
		Query:     query,
		Status:    http.StatusOK,
	}
	if err != nil {
		entry.Status, _ = mapError(err, s.retryAfter)
		entry.Error = err.Error()
	} else if res != nil {
		entry.Rounds = res.Stats.Rounds
		entry.Tasks = res.Stats.Tasks
		entry.Assignments = res.Stats.Assignments
		entry.HITs = res.Stats.HITs
		entry.Partial = res.Stats.Partial
		entry.Reason = res.Stats.Reason
	}
	s.qlog.Record(entry, latency)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, &client.ErrorPayload{Code: client.CodeBadRequest, Message: "POST only"})
		return
	}
	mStreams.Inc()
	if s.shedIfDraining(w) {
		return
	}
	req, err := readRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, &client.ErrorPayload{Code: client.CodeBadRequest, Message: err.Error()})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, &client.ErrorPayload{Code: client.CodeInternal, Message: "response writer cannot stream"})
		return
	}
	ctx, cancel := queryContext(r, req)
	defer cancel()
	start := time.Now()

	// The progress hook runs on the query goroutine; hand updates to
	// the handler goroutine through a channel. Sends block rather than
	// drop — every completed round must reach the wire — and bail out
	// on ctx so an aborted request cannot wedge the query.
	updates := make(chan cdb.RoundUpdate, 16)
	fut, err := s.engine.SubmitWithProgress(ctx, req.Query, func(u cdb.RoundUpdate) {
		select {
		case updates <- u:
		case <-ctx.Done():
		}
	})
	if err != nil {
		s.writeMappedError(w, err)
		s.logQuery("stream", r, req.Query, nil, err, time.Since(start))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	emit := func(ev client.StreamEvent) {
		// Write errors mean the client went away; the ctx above
		// cancels the query, nothing to do here.
		_ = enc.Encode(ev)
		flusher.Flush()
	}

	// With the greedy planner on, the stream opens with the plan the
	// rounds will follow — before any round event, so a watching client
	// knows the join order and early-exit points up front. Old clients
	// skip the unknown event type. Best-effort: a plan that fails to
	// build will fail identically inside the query, which reports the
	// error in-band.
	if s.engine.PlannerEnabled() {
		if p, perr := s.engine.Explain(req.Query); perr == nil {
			emit(client.StreamEvent{Type: client.EventPlan, Plan: p})
		}
	}

	for {
		select {
		case u := <-updates:
			emit(client.StreamEvent{Type: client.EventRound, Round: &u})
		case <-fut.Done():
			// Every progress send happens before the future completes,
			// so once Done fires the remaining updates are buffered:
			// drain them in order, then emit the terminal event.
			for {
				select {
				case u := <-updates:
					emit(client.StreamEvent{Type: client.EventRound, Round: &u})
					continue
				default:
				}
				break
			}
			res, err := fut.Result(context.Background())
			if err != nil {
				status, p := mapError(err, s.retryAfter)
				_ = status // already streaming: the error travels in-band
				emit(client.StreamEvent{Type: client.EventError, Error: p})
			} else {
				emit(client.StreamEvent{Type: client.EventResult, Result: res})
			}
			s.logQuery("stream", r, req.Query, res, err, time.Since(start))
			return
		}
	}
}

// handleExplain serves POST /v1/explain: plan the query without
// executing it and return the wire-ready cdb.Plan. EXPLAIN issues zero
// crowd assignments, so — like /v1/queries — it stays available while
// the server drains. Non-SELECT targets map to a typed 400
// (CodeUnsupported) through the usual error mapping.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, &client.ErrorPayload{Code: client.CodeBadRequest, Message: "POST only"})
		return
	}
	mExplains.Inc()
	req, err := readRequest(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, &client.ErrorPayload{Code: client.CodeBadRequest, Message: err.Error()})
		return
	}
	start := time.Now()
	plan, err := s.engine.Explain(req.Query)
	if err != nil {
		s.writeMappedError(w, err)
		s.logQuery("explain", r, req.Query, nil, err, time.Since(start))
		return
	}
	s.writeJSON(w, http.StatusOK, plan)
	s.logQuery("explain", r, req.Query, nil, nil, time.Since(start))
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, &client.ErrorPayload{Code: client.CodeBadRequest, Message: "GET only"})
		return
	}
	s.writeJSON(w, http.StatusOK, client.TablesResponse{Tables: s.db.TableNames()})
}

// handleQueries serves the live query table. It is deliberately not
// behind shedIfDraining: watching the drain progress is exactly when an
// operator needs it most.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, &client.ErrorPayload{Code: client.CodeBadRequest, Message: "GET only"})
		return
	}
	snap := s.engine.Queries()
	resp := client.QueriesResponse{
		InFlight: make([]client.QueryInfo, 0, len(snap.InFlight)),
		Recent:   make([]client.QueryInfo, 0, len(snap.Recent)),
	}
	for _, st := range snap.InFlight {
		resp.InFlight = append(resp.InFlight, queryInfo(st))
	}
	for _, st := range snap.Recent {
		resp.Recent = append(resp.Recent, queryInfo(st))
	}
	if ls := s.engine.LedgerStats(); ls.Enabled {
		resp.Ledger = &client.LedgerInfo{
			Replayed:      ls.Replayed,
			TornTruncated: ls.TornTruncations,
			Appended:      ls.Appended,
			Hits:          ls.Hits,
			Verdicts:      ls.Verdicts,
			Statements:    ls.Statements,
			Answers:       ls.Answers,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// queryInfo maps the engine's introspection record onto the wire form.
func queryInfo(st cdb.QueryStatus) client.QueryInfo {
	return client.QueryInfo{
		ID:          st.ID,
		RequestID:   st.RequestID,
		Query:       st.Statement,
		State:       st.State,
		ElapsedMs:   st.ElapsedMs,
		Rounds:      st.Rounds,
		Tasks:       st.Tasks,
		Assignments: st.Assignments,
		Open:        st.Open,
		HITs:        st.HITs,
		Coalesced:   st.Coalesced,
		Cached:      st.Cached,
		Ledger:      st.Ledger,

		Plan:           st.Plan,
		PlanEarlyExits: st.PlanEarlyExits,

		Error: st.Err,
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]string{"status": status})
}

// shedIfDraining rejects the request with 503 when the server is
// draining; accepted queries keep running to completion.
func (s *Server) shedIfDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	mDrainShed.Inc()
	s.setRetryAfter(w)
	s.writeError(w, http.StatusServiceUnavailable, &client.ErrorPayload{
		Code:         client.CodeDraining,
		Message:      "server is draining; retry against another replica",
		RetryAfterMs: s.retryAfter.Milliseconds(),
	})
	return true
}

// mapError translates the library's typed errors into HTTP status +
// wire payload. This is why the satellite work of this layer insisted
// on sentinels: the mapping is errors.Is/As, not string matching.
func mapError(err error, retryAfter time.Duration) (int, *client.ErrorPayload) {
	var pe *cdb.ParseError
	switch {
	case errors.Is(err, cdb.ErrOverloaded):
		return http.StatusTooManyRequests, &client.ErrorPayload{
			Code:         client.CodeOverloaded,
			Message:      "engine overloaded; retry later",
			RetryAfterMs: retryAfter.Milliseconds(),
		}
	case errors.Is(err, cdb.ErrEngineClosed):
		return http.StatusServiceUnavailable, &client.ErrorPayload{
			Code:         client.CodeDraining,
			Message:      "engine closed",
			RetryAfterMs: retryAfter.Milliseconds(),
		}
	case errors.As(err, &pe):
		off := pe.Offset
		return http.StatusBadRequest, &client.ErrorPayload{
			Code:    client.CodeParse,
			Message: pe.Msg,
			Offset:  &off,
			Near:    pe.Near,
		}
	case errors.Is(err, cdb.ErrEngineUnsupported):
		return http.StatusBadRequest, &client.ErrorPayload{
			Code:    client.CodeUnsupported,
			Message: err.Error(),
		}
	case errors.Is(err, cdb.ErrUnknownTable):
		return http.StatusNotFound, &client.ErrorPayload{
			Code:    client.CodeUnknownTable,
			Message: err.Error(),
		}
	case errors.Is(err, exec.ErrStatement):
		return http.StatusBadRequest, &client.ErrorPayload{
			Code:    client.CodeBadRequest,
			Message: err.Error(),
		}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, &client.ErrorPayload{
			Code:    client.CodeTimeout,
			Message: "deadline elapsed before the query completed",
		}
	default:
		return http.StatusInternalServerError, &client.ErrorPayload{
			Code:    client.CodeInternal,
			Message: err.Error(),
		}
	}
}

func (s *Server) writeMappedError(w http.ResponseWriter, err error) {
	status, p := mapError(err, s.retryAfter)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		mShed.Inc()
		s.setRetryAfter(w)
	}
	s.writeError(w, status, p)
}

func (s *Server) setRetryAfter(w http.ResponseWriter) {
	secs := int(s.retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

func (s *Server) writeError(w http.ResponseWriter, status int, p *client.ErrorPayload) {
	s.writeJSON(w, status, p)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
