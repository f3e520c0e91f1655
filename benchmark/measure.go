package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"

	"cdb"
)

const passes = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is what one pass over a workload's op list measured. The
// timing fields vary run to run; the count fields and digests must be
// identical across the passes of one run.
type passResult struct {
	// slowdown is how much slower than the reference the machine ran
	// during this pass (calibrator reading / calibRefS); 1 until a
	// calibrated run sets it.
	slowdown float64
	setupS   float64   // pass start (or restart) -> first timed op
	wallS    float64   // timed phase
	lat      []float64 // ms per timed op
	cpuMs    float64   // getrusage user+sys over the timed phase
	allocMB  float64   // MemStats.TotalAlloc delta over the timed phase
	liveMB   float64   // HeapAlloc after a forced GC, system still open
	ops      int       // every op of the pass, warm list included
	tasks    int       // Stats.Tasks summed over ops
	hits     int       // HITs really sent to the crowd
	rounds   int       // Stats.Rounds summed over ops
	f1Sum    float64   // Stats.F1 summed over ops
	failed   int       // ops that errored, came back partial or failed a check
	digests  []uint64  // per-op result digest, op-list order
	journalS float64   // durable_restart: untimed journal phase
	engine   cdb.EngineStats
	ledger   cdb.LedgerStats
	// engineBootMs is NewEngine's duration in the timed stack (for
	// durable_restart: on the journalled directory).
	engineBootMs float64
}

func newPass() *passResult { return &passResult{slowdown: 1} }

// meter brackets a timed phase with the process-wide resource
// counters.
type meter struct {
	t0  time.Time
	ru0 syscall.Rusage
	ms0 runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0) // cannot fail for RUSAGE_SELF
	m.t0 = time.Now()
	return m
}

// stop returns wall seconds, CPU milliseconds and allocated megabytes
// since startMeter.
func (m *meter) stop() (wallS, cpuMs, allocMB float64) {
	wallS = time.Since(m.t0).Seconds()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := tvMs(ru.Utime) + tvMs(ru.Stime) - tvMs(m.ru0.Utime) - tvMs(m.ru0.Stime)
	return wallS, cpu, float64(ms.TotalAlloc-m.ms0.TotalAlloc) / (1 << 20)
}

func tvMs(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }

// liveHeapMB forces a collection and reports what is still reachable.
// Two cycles: the first only demotes sync.Pool contents to victims and
// queues finalizers, the second frees them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// digest hashes a result's canonical wire form, minus the fields
// that describe how it was served instead of what was answered: the
// request ID is minted per request, the trace is process local, and
// Coalesced / CachedTasks (with the message that quotes them) say
// whether another query happened to ask a task first — which depends
// on how concurrent clients interleave, and which a restart changes by
// design. "Sharing changes what the platform does, not what a query
// observes."
func digest(res *cdb.Result) (uint64, []byte) {
	cp := *res
	cp.RequestID, cp.Trace, cp.Message = "", nil, ""
	cp.Stats.Coalesced, cp.Stats.CachedTasks = 0, 0
	raw, err := json.Marshal(&cp)
	if err != nil {
		return 0, nil
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64(), raw
}

// add folds one op's outcome into the pass: its error, or its stats
// and result digest.
func (p *passResult) add(err error, st cdb.Stats, d uint64) {
	p.ops++
	if err != nil {
		p.failed++
		p.digests = append(p.digests, 0)
		return
	}
	if st.Partial {
		p.failed++
	}
	p.tasks += st.Tasks
	p.rounds += st.Rounds
	p.f1Sum += st.F1
	p.digests = append(p.digests, d)
}

// countKey renders the fields that must repeat exactly across passes.
func (p *passResult) countKey() string {
	return fmt.Sprintf("ops=%d tasks=%d hits=%d rounds=%d f1=%.9f", p.ops, p.tasks, p.hits, p.rounds, p.f1Sum)
}

// endToEnd reduces the passes of one run to the twelve end-to-end
// metrics: medians of the per-pass timings, and the (identical) counts
// of the first pass. Ops whose digest differs between passes, and a
// count mismatch between passes, are failures.
//
// Wall and CPU times are reported at reference speed: each pass's
// values are divided by the pass's slowdown before the median is taken,
// so that a reading says how fast the code is and not how busy the
// machine's neighbours were. Allocation and heap sizes do not depend on
// speed and are reported as measured.
func endToEnd(ps []*passResult) (map[string]metric, int, int) {
	first := ps[0]
	failed := first.failed
	for _, p := range ps[1:] {
		if p.countKey() != first.countKey() {
			// The determinism invariant is broken: nothing this run
			// counted can be trusted.
			failed = first.ops
			break
		}
		diff := 0
		for i, d := range p.digests {
			if i >= len(first.digests) || d != first.digests[i] {
				diff++
			}
		}
		if diff+p.failed > failed {
			failed = diff + p.failed
		}
	}
	if failed > first.ops {
		failed = first.ops
	}
	col := func(f func(*passResult) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	// timing is col for a duration: at reference speed.
	timing := func(f func(*passResult) float64) float64 {
		return col(func(p *passResult) float64 { return f(p) / p.slowdown })
	}
	timedOps := func(p *passResult) float64 { return float64(len(p.lat)) }
	ops := float64(first.ops)
	out := map[string]metric{
		"setup_s":            {timing(func(p *passResult) float64 { return p.setupS }), "s"},
		"throughput_qps":     {1 / timing(func(p *passResult) float64 { return p.wallS / timedOps(p) }), "1/s"},
		"query_p50_ms":       {timing(func(p *passResult) float64 { return percentile(p.lat, 50) }), "ms"},
		"query_p90_ms":       {timing(func(p *passResult) float64 { return percentile(p.lat, 90) }), "ms"},
		"cpu_ms_per_query":   {timing(func(p *passResult) float64 { return p.cpuMs / timedOps(p) }), "ms"},
		"alloc_mb_per_query": {col(func(p *passResult) float64 { return p.allocMB / timedOps(p) }), "MB"},
		"live_heap_mb":       {col(func(p *passResult) float64 { return p.liveMB }), "MB"},
		"tasks_per_query":    {float64(first.tasks) / ops, "tasks"},
		"hits_per_query":     {float64(first.hits) / ops, "HITs"},
		"rounds_per_query":   {float64(first.rounds) / ops, "rounds"},
		"f1":                 {first.f1Sum / ops, "ratio"},
		"success_ratio":      {float64(first.ops-failed) / ops, "ratio"},
	}
	return out, first.ops, failed
}
