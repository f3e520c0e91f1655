// Package obs is CDB's observability subsystem: a zero-dependency
// metrics registry (atomic counters, gauges and fixed-bucket
// histograms) with snapshot, expvar and Prometheus-text exporters, a
// structured query-lifecycle tracer that records typed spans with
// monotonic timings, and profiling hooks for the command-line tools.
//
// The paper's optimizer claims are about three goals — cost (#tasks),
// latency (#rounds) and quality (F1) — but validating them on a
// running system needs visibility *inside* a query: where rounds spend
// their time, how many edges each answer pruned, whether the
// incremental score cache actually hit. Everything here is built so
// the answer costs nothing when nobody asks: metrics are single atomic
// operations, and every tracer method is a no-op on a nil receiver, so
// uninstrumented runs pay one predictable branch.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus exporter to stay
// semantically a counter; this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into a fixed cumulative-style bucket
// layout (Prometheus semantics: bucket i counts observations <=
// Bounds[i]; one implicit +Inf bucket catches the rest). All methods
// are safe for concurrent use and allocation-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram bounds not sorted: %v", bounds))
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
// The slice is owned by the histogram; callers must not modify it.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a copy of the per-bucket counts, the last entry
// being the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Fixed bucket layouts shared by CDB's instrumentation, so dashboards
// can rely on stable boundaries across versions.
var (
	// DurationBuckets covers 1µs..10s exponentially, in seconds.
	DurationBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// SizeBuckets covers counts (batch sizes, edges scored) in powers
	// of four up to ~1M.
	SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
)

// Registry is a named collection of metrics. The zero value is not
// usable; use NewRegistry. Metric lookup takes a mutex, so callers on
// hot paths should resolve their metrics once (package-level vars) and
// update them lock-free afterwards.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry all of CDB's built-in
// instrumentation registers into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
// Panics if the name is already taken by a different metric type.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Later calls ignore bounds (the first
// registration wins), keeping call sites free to share a layout var.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := newHistogram(bounds)
	r.hists[name] = h
	return h
}

// checkFree panics when name is registered under another metric type —
// a programming error that would silently split a time series.
func (r *Registry) checkFree(name, want string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: %s %q already registered as counter", want, name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %s %q already registered as gauge", want, name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: %s %q already registered as histogram", want, name))
	}
}

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a Snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSnap is one histogram in a Snapshot. Counts has one more entry
// than Bounds (the +Inf bucket). P50/P95/P99 are the bucket-estimated
// latency quantiles (see Quantile) so dashboards and cdbtop read SLO
// numbers straight off the snapshot instead of re-deriving them.
type HistSnap struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts, Prometheus histogram_quantile style: find the bucket the
// rank falls into, then interpolate linearly inside it (the first
// bucket interpolates from 0). Observations in the +Inf bucket clamp
// to the highest finite bound — a histogram can't honestly claim more
// than its layout resolves. Returns 0 for an empty histogram.
func (h HistSnap) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.Bounds) { // +Inf bucket
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if c == 0 {
			return hi
		}
		inBucket := rank - float64(cum-c)
		return lo + (hi-lo)*(inBucket/float64(c))
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a registry, sorted by name for
// deterministic export. Individual metrics are read atomically, but
// the snapshot as a whole is not a consistent cut.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]CounterSnap, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, CounterSnap{Name: name, Value: c.Value()})
	}
	gauges := make([]GaugeSnap, 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	hists := make([]HistSnap, 0, len(r.hists))
	for name, h := range r.hists {
		hs := HistSnap{
			Name:   name,
			Bounds: h.Bounds(),
			Counts: h.BucketCounts(),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		hs.P50, hs.P95, hs.P99 = hs.Quantile(0.50), hs.Quantile(0.95), hs.Quantile(0.99)
		hists = append(hists, hs)
	}
	r.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	return Snapshot{Counters: counters, Gauges: gauges, Histograms: hists}
}
