package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cdb"
	"cdb/internal/ledger"
	"cdb/internal/quality"
)

// layerSet collects per-layer metrics; every name in perLayerUnits
// starts at 0 and a traced run overwrites the ones its workload reaches.
type layerSet map[string]float64

func newLayerSet() layerSet {
	ls := layerSet{}
	for name := range perLayerUnits {
		ls[name] = 0
	}
	return ls
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reference runs the untraced reference pass of a traced run and
// records the collector's share of it.
func reference(ls layerSet, pass func() (*passResult, error)) (*passResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, err := pass()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	ls["runtime.num_gc"] = float64(after.NumGC - before.NumGC)
	ls["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return ref, nil
}

// timeGen records how long generating the workload's datasets takes.
func timeGen(ls layerSet, scale float64, datasets ...string) {
	t0 := time.Now()
	for _, ds := range datasets {
		genData(ds, scale)
	}
	ls["dataset.gen_ms"] = ms(time.Since(t0))
}

// traceCold is the traced run of a cold workload: an untraced reference
// pass, the staged pass that records the layer spans, and a pass with
// the program's own tracer on, which both prices that tracer and
// cross-checks the decorator against it.
func traceCold(spec coldSpec, ops []op, nWarm int, rec *recorder) (layerSet, *passResult, error) {
	ls := newLayerSet()
	ref, err := reference(ls, func() (*passResult, error) { return coldPass(spec, ops, nWarm, false, nil) })
	if err != nil {
		return nil, nil, err
	}

	c, err := stagedPass(spec, ops, rec, ref.digests)
	if err != nil {
		return nil, nil, err
	}
	lt := rec.layerTimes()
	n := float64(c.queries)
	ls["cql.parse_us"] = lt.total["cql.parse"] * 1e3 / n
	ls["sim.join_ms"] = lt.total["sim.join"] / n
	ls["sim.joins_per_query"] = float64(c.joins) / n
	ls["sim.pairs_per_join"] = ratio(float64(c.pairs), float64(c.joins))
	ls["exec.buildplan_ms"] = lt.self["exec.buildplan"] / n
	ls["graph.edges_per_query"] = float64(c.edges) / n
	ls["graph.components_per_query"] = float64(c.components) / n
	ls["plan.greedy_us"] = lt.total["plan.greedy"] * 1e3 / n
	ls["plan.predicted_saved_ratio"] = 1 - ratio(float64(c.predicted), float64(c.fixed))
	ls["cost.order_ms"] = lt.total["cost.order"] / n
	ls["cost.order_ms_per_round"] = ratio(lt.total["cost.order"], float64(lt.count["cost.order"]))
	ls["cost.rescore_full"] = float64(c.rescoreFull) / n
	ls["cost.rescore_delta"] = float64(c.rescoreDelta) / n
	ls["cost.order_hits"] = float64(c.orderHits) / n
	ls["latency.batch_ms"] = lt.total["latency.batch"] / n
	ls["latency.batch_ms_per_round"] = ratio(lt.total["latency.batch"], float64(lt.count["latency.batch"]))
	ls["latency.batch_size"] = ratio(float64(c.batchTasks), float64(c.rounds))
	ls["exec.run_ms"] = lt.total["exec.run"] / n
	ls["exec.run_self_ms"] = lt.self["exec.run"] / n
	ls["crowd.assignments_per_task"] = ratio(float64(c.assignments), float64(c.tasks))
	ls["trace.residual_ratio"] = ratio(lt.self["query"], lt.total["query"])
	ls["trace.staged_mismatch_ops"] = float64(c.mismatch)

	// Overhead: the staged pass against DB.Exec on the timed ops.
	var traced float64
	for _, s := range rec.spans {
		if s.Name == "query" && s.Op >= nWarm {
			traced += float64(s.End-s.Start) / 1e6
		}
	}
	ls["trace.overhead_ratio"] = ratio(traced/float64(len(ref.lat)), mean(ref.lat))

	// The tracer that already exists: its score + batch spans bracket
	// the same two calls from the inside.
	var inside float64 // ms
	obsPass, err := coldPass(spec, ops, nWarm, true, func(_ int, res *cdb.Result) {
		for _, sp := range res.Trace.ByName(cdb.SpanScore) {
			inside += float64(sp.Dur) / 1e3
		}
		for _, sp := range res.Trace.ByName(cdb.SpanBatch) {
			inside += float64(sp.Dur) / 1e3
		}
	})
	if err != nil {
		return nil, nil, err
	}
	ls["obs.tracing_overhead_ratio"] = ratio(obsPass.wallS, ref.wallS)
	outside := lt.total["cost.order"] + lt.total["latency.batch"]
	ls["trace.decorator_gap_ratio"] = ratio(math.Abs(outside-inside), inside)

	timeGen(ls, spec.scale, spec.datasets...)
	return ls, ref, nil
}

// meanLat averages the latency of the ops whose hot flag equals hot.
func meanLat(ops []op, outs []outcome, hot bool) float64 {
	var xs []float64
	for i, o := range outs {
		if ops[i].hot == hot && o.err == nil {
			xs = append(xs, o.latMs)
		}
	}
	return mean(xs)
}

// engineLayers derives the sharing ratios from an engine's counters.
func engineLayers(ls layerSet, st cdb.EngineStats) {
	ls["engine.answer_cache_hit_ratio"] = ratio(float64(st.QueriesCached), float64(st.Submitted))
	ls["engine.verdict_cache_hit_ratio"] = ratio(float64(st.Cached), float64(st.TasksResolved))
	ls["engine.coalesced_ratio"] = ratio(float64(st.Coalesced), float64(st.TasksResolved))
	ls["engine.join_cache_hit_ratio"] = ratio(float64(st.JoinsShared), float64(st.JoinsShared+st.JoinsComputed))
	ls["engine.hits_saved_ratio"] = ratio(float64(st.HITsSaved), float64(st.HITsSaved+st.HITsIssued))
	ls["engine.verdict_cache_entries"] = float64(st.CacheEntries)
	ls["engine.rejected"] = float64(st.Rejected)
}

// depthLayers turns the mean latencies of one list replayed at the
// three entry depths into self times: what the engine costs, what the
// handler adds around it, what client and loopback add around that.
func depthLayers(ls layerSet, ops []op, client, handler, engine []outcome) {
	for _, hot := range []bool{true, false} {
		suffix := "_novel"
		if hot {
			suffix = "_hot"
		}
		c, h, e := meanLat(ops, client, hot), meanLat(ops, handler, hot), meanLat(ops, engine, hot)
		ls["engine.submit_ms"+suffix] = e
		ls["server.handler_self_ms"+suffix] = h - e
		if hot {
			ls["client.roundtrip_self_ms_hot"] = c - h
		}
	}
	var bytes []float64
	for _, o := range handler {
		bytes = append(bytes, float64(o.bytes))
	}
	ls["server.response_bytes"] = mean(bytes)
}

// traceServe is the traced run of serve_mix: an untraced reference
// pass, then the same list at each entry depth with a span per op.
func traceServe(hot, timed []op, rec *recorder) (layerSet, *passResult, error) {
	ls := newLayerSet()
	ref, err := reference(ls, func() (*passResult, error) {
		p, _, err := servePass(hot, timed, depthClient, nil)
		return p, err
	})
	if err != nil {
		return nil, nil, err
	}

	var outs [3][]outcome
	var traced *passResult
	for i, depth := range []string{depthClient, depthHandler, depthEngine} {
		p, o, err := servePass(hot, timed, depth, rec)
		if err != nil {
			return nil, nil, err
		}
		if p.failed > 0 {
			return nil, nil, fmt.Errorf("serve_mix at %s: %d ops failed", depth, p.failed)
		}
		outs[i] = o
		if i == 0 {
			traced = p
		}
	}
	depthLayers(ls, timed, outs[0], outs[1], outs[2])
	engineLayers(ls, ref.engine)
	ls["trace.overhead_ratio"] = ratio(traced.wallS, ref.wallS)

	timeGen(ls, serveScale, "paper")
	return ls, ref, nil
}

// traceDurable is the traced run of durable_restart: as traceServe,
// plus the ledger's own numbers.
func traceDurable(dir string, j, n []op, rec *recorder) (layerSet, *passResult, error) {
	ls := newLayerSet()
	ref, err := reference(ls, func() (*passResult, error) { return durablePass(dir, j, n, depthClient, nil) })
	if err != nil {
		return nil, nil, err
	}

	var wall [3]float64
	var lat [3]float64
	for i, depth := range []string{depthClient, depthHandler, depthEngine} {
		p, err := durablePass(dir, j, n, depth, rec)
		if err != nil {
			return nil, nil, err
		}
		if p.failed > 0 {
			return nil, nil, fmt.Errorf("durable_restart at %s: %d ops failed", depth, p.failed)
		}
		wall[i], lat[i] = p.wallS, mean(p.lat)
	}
	// Every op of this workload is novel to the restarted engine's
	// caller; there is no hot set.
	ls["engine.submit_ms_novel"] = lat[2]
	ls["server.handler_self_ms_novel"] = lat[1] - lat[2]
	engineLayers(ls, ref.engine)
	ls["trace.overhead_ratio"] = ratio(wall[0], ref.wallS)

	ls["engine.warm_ms"] = ref.engineBootMs
	ls["engine.ledger_hits"] = float64(ref.ledger.Hits)
	ls["ledger.replayed_records"] = float64(ref.ledger.Replayed)
	ls["ledger.wal_bytes"] = float64(ref.ledger.WALBytes)
	ls["ledger.compactions"] = float64(ref.ledger.Compactions)
	ls["ledger.append_errors"] = float64(ref.ledger.AppendErrors)
	ls["ledger.journal_phase_s"] = ref.journalS
	if err := ledgerProbe(ls, filepath.Join(filepath.Dir(dir), "ledger-probe")); err != nil {
		return nil, nil, err
	}

	timeGen(ls, serveScale, "paper")
	return ls, ref, nil
}

// ledgerProbe times the ledger alone on a scratch directory: 10 000
// verdict appends under the interval policy, then a reopen that replays
// them.
func ledgerProbe(ls layerSet, dir string) error {
	const records = 10000
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := ledger.Options{Seed: crowdSeed, Fsync: ledger.FsyncInterval}
	lg, err := ledger.Open(dir, opts)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < records; i++ {
		lg.AppendVerdict(ledger.Verdict{
			Key:         "5\x1fProbe.left CROWDJOIN Probe.right\x1fvalue " + strconv.Itoa(i) + "\x1fvalue " + strconv.Itoa(i+1),
			Value:       i%3 == 0,
			Confidence:  0.8,
			Assignments: 5,
		})
	}
	ls["ledger.append_us"] = ms(time.Since(t0)) * 1e3 / records
	ls["ledger.bytes_per_verdict"] = float64(lg.Stats().WALBytes) / records
	if err := lg.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	lg, err = ledger.Open(dir, opts)
	if err != nil {
		return err
	}
	ls["ledger.replay_ms"] = ms(time.Since(t0))
	if got := lg.Stats().Replayed; got < records {
		lg.Close()
		return fmt.Errorf("ledger probe: replayed %d of %d records", got, records)
	}
	return lg.Close()
}

// commonProbes measures the layers no workload's default path reaches
// or that every workload shares: EM truth inference on 1000 synthetic
// five-answer tasks, and loading a saved catalog from disk.
func commonProbes(ls layerSet, outDir string) error {
	rng := rand.New(rand.NewSource(1))
	tasks := make([]quality.ChoiceTask, 1000)
	for i := range tasks {
		tasks[i].Choices = 2
		truth := rng.Intn(2)
		for a := 0; a < 5; a++ {
			choice := truth
			if rng.Float64() > 0.8 {
				choice = 1 - truth
			}
			tasks[i].Answers = append(tasks[i].Answers, quality.ChoiceAnswer{Worker: rng.Intn(50), Choice: choice})
		}
	}
	t0 := time.Now()
	quality.NewWorkerModel().InferEM(tasks, 50)
	ls["quality.em_ms_per_1k_tasks"] = ms(time.Since(t0))

	dir := filepath.Join(outDir, "tables-probe")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	src, err := cdb.OpenConfig(cdb.Config{Seed: crowdSeed, Dataset: "paper", DatasetScale: serveScale, DatasetSeed: datasetSeed})
	if err != nil {
		return err
	}
	if err := src.SaveDir(dir); err != nil {
		return err
	}
	t0 = time.Now()
	if err := cdb.Open().LoadDir(dir); err != nil {
		return err
	}
	ls["table.load_ms"] = ms(time.Since(t0))
	return nil
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
