package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span names emitted by CDB's built-in instrumentation. The per-query
// span tree is
//
//	query
//	├── parse
//	├── plan
//	├── round (round=1, tasks=…, blue=…, red=…, pruned=…, edges_valid=…)
//	│   ├── score   candidate scoring (cost control, Eq. 1)
//	│   ├── batch   conflict-free batch selection (latency control, §5.2)
//	│   ├── issue   task issue + answer collection (tasks=…, assignments=…)
//	│   │   ├── collect  one async collect window (fault-tolerant transport)
//	│   │   └── reissue  a retry/hedge wave (event; tasks=… reissued)
//	│   ├── infer   truth inference (CDB+ EM; absent under majority voting)
//	│   └── color   graph coloring with the round's verdicts
//	├── round (round=2, …)
//	└── drain       the final strategy probe that returned no tasks
const (
	SpanQuery   = "query"
	SpanParse   = "parse"
	SpanPlan    = "plan"
	SpanRound   = "round"
	SpanScore   = "score"
	SpanBatch   = "batch"
	SpanIssue   = "issue"
	SpanCollect = "collect"
	SpanReissue = "reissue"
	SpanInfer   = "infer"
	SpanColor   = "color"
	SpanDrain   = "drain"
)

// Span is one typed record of the query lifecycle. Timings are
// monotonic offsets from the trace's start, so spans order and nest
// correctly even across wall-clock adjustments. Count fields are only
// meaningful on the span kinds that set them and are omitted from JSON
// when zero.
type Span struct {
	Trace  uint64 `json:"trace"`            // trace (query) identity
	Req    string `json:"req,omitempty"`    // request correlation ID (serving tier)
	ID     int    `json:"id"`               // dense per-trace span id
	Parent int    `json:"parent"`           // parent span id, -1 for the root
	Name   string `json:"name"`             // one of the Span* constants
	Kind   string `json:"kind"`             // "span" or "event"
	Start  int64  `json:"start_us"`         // µs since trace start (monotonic)
	Dur    int64  `json:"dur_us"`           // µs duration (0 for events)
	Query  string `json:"query,omitempty"`  // statement text (root span)
	Label  string `json:"label,omitempty"`  // freeform (strategy, dataset, …)
	Round  int    `json:"round,omitempty"`  // 1-based round number
	Tasks  int    `json:"tasks,omitempty"`  // crowd tasks issued
	Asks   int    `json:"asks,omitempty"`   // worker assignments collected
	Blue   int    `json:"blue,omitempty"`   // edges confirmed this round
	Red    int    `json:"red,omitempty"`    // edges refuted this round
	Pruned int    `json:"pruned,omitempty"` // edges invalidated without asking
	Edges  int    `json:"edges,omitempty"`  // valid uncolored edges remaining (an ORDER BY's: comparisons left to ask); on a plan span, edges bound
	// Candidate pairs the bind found (plan span); Edges of them were bound.
	Candidates int `json:"candidates,omitempty"`
	// Rescores of the cost engine attributed to this span.
	CacheFull int    `json:"cache_full,omitempty"`
	Err       string `json:"err,omitempty"`
}

// SpanID identifies an open span within its Tracer. The zero Tracer
// operations return NoSpan, which every method accepts harmlessly.
type SpanID int

// NoSpan is the SpanID returned by operations on a nil Tracer.
const NoSpan SpanID = -1

// Observer receives completed spans as they end (children before
// parents, end-time order). Implementations must be safe for the
// tracer's locking discipline: calls arrive sequentially per tracer
// but possibly concurrently across tracers.
type Observer interface {
	ObserveSpan(Span)
}

var traceIDs atomic.Uint64

// Tracer records one query's span tree and streams finished spans to
// an Observer. All methods are nil-safe: a nil *Tracer is the disabled
// tracer, and every call on it is a single branch with no allocation —
// the hot-path contract the executor relies on.
//
// Begin/End follow a stack discipline (the parent of a new span is the
// most recently begun unfinished span), which matches the executor's
// strictly nested phases and keeps call sites free of parent plumbing.
type Tracer struct {
	mu    sync.Mutex
	id    uint64
	req   string // request correlation ID stamped on every span
	t0    time.Time
	spans []Span // by span id; Dur < 0 while still open
	stack []SpanID
	obs   Observer
}

// NewTracer creates a tracer for one query. obs may be nil (spans are
// then only collected for the final Trace).
func NewTracer(obs Observer) *Tracer {
	return &Tracer{id: traceIDs.Add(1), t0: time.Now(), obs: obs}
}

// TraceID returns the process-unique id of this trace (0 for nil).
func (t *Tracer) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

func (t *Tracer) now() int64 { return time.Since(t.t0).Microseconds() }

// SetRequestID attaches the serving tier's request-correlation ID to
// this trace: every span already recorded and every span yet to come
// carries it, so the JSONL lines of one request are joinable by ID
// across processes. Nil-safe like every Tracer method.
func (t *Tracer) SetRequestID(id string) {
	if t == nil || id == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req = id
	for i := range t.spans {
		t.spans[i].Req = id
	}
}

// Begin opens a span named name as a child of the current innermost
// open span and returns its id.
func (t *Tracer) Begin(name string) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = int(t.stack[n-1])
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{
		Trace:  t.id,
		Req:    t.req,
		ID:     int(id),
		Parent: parent,
		Name:   name,
		Kind:   "span",
		Start:  t.now(),
		Dur:    -1,
	})
	t.stack = append(t.stack, id)
	return id
}

// Mutate applies f to the open span id (set counts, rename, attach an
// error) before it ends. No-op on a nil tracer or NoSpan.
func (t *Tracer) Mutate(id SpanID, f func(*Span)) {
	if t == nil || id == NoSpan {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.spans) {
		f(&t.spans[id])
	}
}

// End closes span id (and, defensively, any deeper spans left open),
// records its duration and streams it to the observer.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == NoSpan {
		return
	}
	t.mu.Lock()
	var done []Span
	for n := len(t.stack); n > 0; n = len(t.stack) {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		sp := &t.spans[top]
		if sp.Dur < 0 {
			sp.Dur = t.now() - sp.Start
		}
		done = append(done, *sp)
		if top == id {
			break
		}
	}
	obs := t.obs
	t.mu.Unlock()
	if obs != nil {
		for _, sp := range done {
			obs.ObserveSpan(sp)
		}
	}
}

// Event records an instantaneous child of the current innermost open
// span (a point annotation: calibration fitted, cache reset, …) and
// streams it immediately.
func (t *Tracer) Event(name string, f func(*Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = int(t.stack[n-1])
	}
	sp := Span{
		Trace:  t.id,
		Req:    t.req,
		ID:     len(t.spans),
		Parent: parent,
		Name:   name,
		Kind:   "event",
		Start:  t.now(),
	}
	if f != nil {
		f(&sp)
	}
	t.spans = append(t.spans, sp)
	obs := t.obs
	t.mu.Unlock()
	if obs != nil {
		obs.ObserveSpan(sp)
	}
}

// Finish ends any spans still open and returns the completed trace.
// The tracer must not be used afterwards.
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		root := t.stack[0]
		t.mu.Unlock()
		t.End(root)
		t.mu.Lock()
	}
	tr := &Trace{TraceID: t.id, RequestID: t.req, Spans: t.spans}
	t.spans = nil
	t.mu.Unlock()
	return tr
}

// Trace is a completed span tree, attached to Result.Trace when
// tracing is enabled.
type Trace struct {
	TraceID uint64
	// RequestID is the serving tier's correlation ID when the query
	// arrived through cdbd (or the submitter set one); also stamped on
	// every span.
	RequestID string
	Spans     []Span
}

// ByName returns the spans with the given name, in begin order.
func (tr *Trace) ByName(name string) []Span {
	if tr == nil {
		return nil
	}
	var out []Span
	for _, s := range tr.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// jsonlBufPool recycles encode buffers so steady-state JSONL emission
// does not allocate per span.
var jsonlBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeSpanLine(w io.Writer, s *Span) error {
	buf := jsonlBufPool.Get().(*bytes.Buffer)
	defer jsonlBufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	if err := enc.Encode(s); err != nil { // Encode appends '\n'
		return fmt.Errorf("obs: encode span: %w", err)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// JSONLWriter is an Observer that appends each finished span as one
// JSON line to an underlying writer. Safe for concurrent use; wrap the
// writer in a bufio.Writer (and call Flush) for high-volume traces.
type JSONLWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLWriter creates a JSONL-emitting observer over w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

// ObserveSpan implements Observer. The first write error is retained
// (see Err) and later spans are dropped.
func (j *JSONLWriter) ObserveSpan(s Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = writeSpanLine(j.w, &s)
}

// Err returns the first write error encountered, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// TraceCarrier is implemented by task-selection strategies that can
// attribute their internal phases (scoring, batching) to the current
// query's tracer. The executor hands its tracer to the strategy before
// the round loop and clears it afterwards.
type TraceCarrier interface {
	SetTracer(*Tracer)
}

// CacheStatser is implemented by strategies that count their rescores;
// the executor diffs consecutive readings to attribute them to each
// round's span.
type CacheStatser interface {
	// CacheStats returns the monotone total of full rescores. delta
	// (partial rescores) and hit (rounds served from a cached order) are
	// 0 — no strategy has either — and stay results until a
	// benchmark-archetype PR retires the benchmark's metrics that read
	// them.
	CacheStats() (full, delta, hit uint64)
}
