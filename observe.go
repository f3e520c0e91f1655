package cdb

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"cdb/internal/obs"
	"cdb/internal/reqid"
)

// Observability surface. The heavy lifting lives in internal/obs; the
// aliases below re-export the handful of types an embedding application
// needs so that `import "cdb"` is enough to stream traces or scrape
// metrics. With no observer configured and tracing off, every probe in
// the execution stack is a nil check and the hot path allocates nothing
// for observability.

// Observer receives every finished span of a traced query, children
// before parents, the root query span last. Implementations must be
// safe for reuse across queries; spans arrive as values and may be
// retained.
type Observer = obs.Observer

// Span is one timed node of a query trace: parse, plan, each crowd
// round, and the scoring/batching/issue/inference/coloring phases
// within a round. See internal/obs for the span-name taxonomy and the
// meaning of the count fields.
type Span = obs.Span

// Trace is the complete span tree of one executed statement, in
// Begin order (the root query span first).
type Trace = obs.Trace

// JSONLWriter is an Observer that appends one JSON object per finished
// span to an io.Writer — point it at a file and every traced query
// streams its rounds as they complete.
type JSONLWriter = obs.JSONLWriter

// NewJSONLWriter returns a JSONLWriter writing to w. Check Err() after
// the run: write failures are retained, not panicked.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return obs.NewJSONLWriter(w) }

// Span names as they appear in Span.Name and in trace JSONL output.
// The tree is query → {parse, plan, round*} and each round nests
// score/batch (inside the strategy) plus issue/infer/color; on the
// fault-tolerant transport, issue further nests collect windows and
// reissue (retry/hedge) events.
const (
	SpanQuery   = obs.SpanQuery
	SpanParse   = obs.SpanParse
	SpanPlan    = obs.SpanPlan
	SpanRound   = obs.SpanRound
	SpanScore   = obs.SpanScore
	SpanBatch   = obs.SpanBatch
	SpanIssue   = obs.SpanIssue
	SpanCollect = obs.SpanCollect
	SpanReissue = obs.SpanReissue
	SpanInfer   = obs.SpanInfer
	SpanColor   = obs.SpanColor
	SpanDrain   = obs.SpanDrain
)

// MetricsRegistry aggregates the process-wide counters, gauges and
// histograms the execution stack maintains (task, round, batch, cache,
// EM and join metrics — all under the cdb_ prefix).
type MetricsRegistry = obs.Registry

// Metrics returns the process-wide registry every cdb subsystem
// records into.
func Metrics() *MetricsRegistry { return obs.Default }

// WriteMetrics writes the current metric values to w in Prometheus
// text exposition format (version 0.0.4).
func WriteMetrics(w io.Writer) error { return obs.Default.WritePrometheus(w) }

// WriteMetricsSummary writes a human-oriented rendering of the current
// metrics: counters and gauges one per line, histograms as
// count/p50/p95/p99/mean instead of raw cumulative buckets. Histograms
// named *_seconds render their quantiles as durations. This is what
// cdbsh's \metrics prints — an operator wants latency quantiles, not
// twenty bucket counters.
func WriteMetricsSummary(w io.Writer) error {
	snap := obs.Default.Snapshot()
	for _, c := range snap.Counters {
		if _, err := fmt.Fprintf(w, "%-46s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		if _, err := fmt.Fprintf(w, "%-46s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		val := func(v float64) string {
			if strings.HasSuffix(h.Name, "_seconds") {
				return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
			}
			return fmt.Sprintf("%.4g", v)
		}
		mean := h.Sum / float64(h.Count)
		if _, err := fmt.Fprintf(w, "%-46s count=%d p50=%s p95=%s p99=%s mean=%s\n",
			h.Name, h.Count, val(h.P50), val(h.P95), val(h.P99), val(mean)); err != nil {
			return err
		}
	}
	return nil
}

// ContextWithRequestID attaches a request-correlation ID to ctx.
// Queries submitted (or client requests issued) under the returned
// context carry the ID end to end: cdbd echoes it on the response,
// stamps it on every trace span, and writes it to the query log — the
// key that joins one request's artifacts across processes.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	c := reqid.From(ctx)
	c.RequestID = reqid.Sanitize(id)
	return reqid.With(ctx, c)
}

// RequestIDFromContext extracts the request-correlation ID from ctx
// ("" when none is attached).
func RequestIDFromContext(ctx context.Context) string {
	return reqid.From(ctx).RequestID
}

// ServeMetrics starts an HTTP listener on addr (":0" picks a free
// port) exposing /metrics (Prometheus text), /debug/vars (expvar) and
// /debug/pprof. It returns the bound address and a shutdown func.
func ServeMetrics(addr string) (boundAddr string, shutdown func() error, err error) {
	return obs.Serve(addr, obs.Default)
}

// StartProfiles begins a CPU profile at cpuPath (empty to skip) and
// arranges a heap profile at memPath (empty to skip). The returned
// stop func flushes both; call it before exit.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	return obs.StartProfiles(cpuPath, memPath)
}

// WithObserver streams every traced span of every statement to o as it
// finishes, and attaches the full trace to each Result. Use
// NewJSONLWriter for a ready-made file sink.
func WithObserver(o Observer) Option {
	return func(c *Config) { c.Observer = o }
}

// WithTracing toggles trace collection without an observer: each
// Result carries its Trace, but nothing is streamed. WithObserver
// implies tracing.
func WithTracing(on bool) Option {
	return func(c *Config) { c.Tracing = on }
}

// tracer returns a fresh per-statement tracer, or nil when
// observability is off — the nil tracer disables every probe downstream
// at the cost of one branch each.
func (db *DB) tracer() *obs.Tracer {
	if db.cfg.Observer == nil && !db.cfg.Tracing {
		return nil
	}
	return obs.NewTracer(db.cfg.Observer)
}
