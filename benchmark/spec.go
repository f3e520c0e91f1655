package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// workloadNames lists the workloads in the order a full run takes them.
// The names are stable: later issues cite them.
var workloadNames = []string{"cold_small", "cold_scaled", "serve_mix", "durable_restart"}

// endToEndUnits names the twelve end-to-end metrics with their units.
// BENCHMARK.json adds direction and bound; a test keeps the two in
// step.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"throughput_qps":     "1/s",
	"query_p50_ms":       "ms",
	"query_p90_ms":       "ms",
	"cpu_ms_per_query":   "ms",
	"alloc_mb_per_query": "MB",
	"live_heap_mb":       "MB",
	"tasks_per_query":    "tasks",
	"hits_per_query":     "HITs",
	"rounds_per_query":   "rounds",
	"f1":                 "ratio",
	"success_ratio":      "ratio",
}

// countMetrics are the end-to-end metrics the program counts instead of
// timing. Under one seed they must repeat exactly, run after run.
var countMetrics = map[string]bool{
	"tasks_per_query":  true,
	"hits_per_query":   true,
	"rounds_per_query": true,
	"f1":               true,
	"success_ratio":    true,
}

// perLayerUnits names every per-layer metric of the traced run. A
// workload reports 0 for a layer its path does not reach from outside
// (the engine builds its own strategy, DB.Exec has no ledger); README.md
// says which workload is each metric's home.
var perLayerUnits = map[string]string{
	"cql.parse_us": "us",

	"sim.join_ms":         "ms",
	"sim.joins_per_query": "count",
	"sim.pairs_per_join":  "count",

	"exec.buildplan_ms":          "ms",
	"graph.edges_per_query":      "count",
	"graph.components_per_query": "count",

	"plan.greedy_us":             "us",
	"plan.predicted_saved_ratio": "ratio",

	"cost.order_ms":           "ms",
	"cost.order_ms_per_round": "ms",
	"cost.rescore_full":       "count",
	"cost.rescore_delta":      "count",
	"cost.order_hits":         "count",

	"latency.batch_ms":           "ms",
	"latency.batch_ms_per_round": "ms",
	"latency.batch_size":         "count",

	"exec.run_ms":                "ms",
	"exec.run_self_ms":           "ms",
	"crowd.assignments_per_task": "count",

	"quality.em_ms_per_1k_tasks": "ms",

	"engine.submit_ms_hot":           "ms",
	"engine.submit_ms_novel":         "ms",
	"engine.answer_cache_hit_ratio":  "ratio",
	"engine.verdict_cache_hit_ratio": "ratio",
	"engine.coalesced_ratio":         "ratio",
	"engine.join_cache_hit_ratio":    "ratio",
	"engine.hits_saved_ratio":        "ratio",
	"engine.verdict_cache_entries":   "count",
	"engine.rejected":                "count",
	"engine.warm_ms":                 "ms",
	"engine.ledger_hits":             "count",
	"server.handler_self_ms_hot":     "ms",
	"server.handler_self_ms_novel":   "ms",
	"server.response_bytes":          "B",
	"client.roundtrip_self_ms_hot":   "ms",
	"ledger.append_us":               "us",
	"ledger.replay_ms":               "ms",
	"ledger.replayed_records":        "count",
	"ledger.wal_bytes":               "B",
	"ledger.bytes_per_verdict":       "B",
	"ledger.compactions":             "count",
	"ledger.append_errors":           "count",
	"ledger.journal_phase_s":         "s",
	"dataset.gen_ms":                 "ms",
	"table.load_ms":                  "ms",
	"obs.tracing_overhead_ratio":     "ratio",
	"runtime.peak_rss_mb":            "MB",
	"runtime.num_gc":                 "count",
	"runtime.gc_pause_ms":            "ms",
	"runtime.goroutines_end":         "count",
	"trace.overhead_ratio":           "ratio",
	"trace.residual_ratio":           "ratio",
	"trace.decorator_gap_ratio":      "ratio",
	"trace.staged_mismatch_ops":      "count",
	"trace.spans":                    "count",
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmarkFile loads BENCHMARK.json from path.
func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
