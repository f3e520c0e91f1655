package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"cdb"
	"cdb/internal/cost"
	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/graph"
	"cdb/internal/latency"
	"cdb/internal/plan"
	"cdb/internal/sim"
	"cdb/internal/stats"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one op share its index.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the
// benchmark ends. Safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// layerTimes sums, per span name, the spans' durations, their self
// times (duration minus the part their children cover) and their count.
type layerTimes struct {
	total, self map[string]float64 // ms
	count       map[string]int
}

func (r *recorder) layerTimes() layerTimes {
	lt := layerTimes{total: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		d := s.End - s.Start
		lt.total[s.Name] += float64(d) / 1e6
		lt.self[s.Name] += float64(d-children[i]) / 1e6
		lt.count[s.Name]++
	}
	return lt
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStrategy is cost.Expectation's round selection taken apart at
// its two public seams so each half can be timed from outside:
// OrderScored is the cost layer, ParallelBatchScored + TransBatch the
// latency layer. It returns exactly the batches the undecorated
// strategy would (without a transitive-closure overlay, which no
// default configuration installs).
type timedStrategy struct {
	inner  *cost.Expectation
	rec    *recorder
	op     int
	parent int

	rounds int // NextRound calls that produced a batch
	tasks  int // edges over those batches
}

func (t *timedStrategy) Name() string { return t.inner.Name() }

func (t *timedStrategy) NextRound(g *graph.Graph) []int {
	s := t.rec.begin("cost.order", t.op, t.parent)
	order, score := t.inner.OrderScored(g)
	t.rec.end(s)
	if len(order) == 0 {
		return nil
	}
	s = t.rec.begin("latency.batch", t.op, t.parent)
	batch := cost.TransBatch(g, nil, latency.ParallelBatchScored(g, order, score))
	t.rec.end(s)
	t.rounds++
	t.tasks += len(batch)
	return batch
}

func (t *timedStrategy) Flush(g *graph.Graph) []int { return t.inner.Flush(g) }

// stagedCounts is what the staged driver counted besides time.
type stagedCounts struct {
	queries, joins, pairs, edges, components int
	rounds, batchTasks                       int
	rescoreFull, rescoreDelta, orderHits     uint64
	tasks, assignments                       int
	predicted, fixed                         int // plan.Greedy's predicted tasks vs statement order
	mismatch                                 int // ops whose result differs from DB.Exec's
}

// stagedPass drives a cold op list through the pipeline's public stages
// — cql.Parse, exec.BuildPlan with a timing joiner, plan.Greedy (a
// probe: the planner is off by default), exec.Run with the timing
// strategy — recording a span at every boundary. It rebuilds what
// DB.Exec does with a default Config, worker pool included, so its
// results can be checked against want, the digests of an untraced pass.
func stagedPass(spec coldSpec, ops []op, rec *recorder, want []uint64) (stagedCounts, error) {
	var c stagedCounts
	data := map[string]*dataset.Data{}
	pools := map[string]*crowd.Pool{}
	for _, ds := range spec.datasets {
		data[ds] = genData(ds, spec.scale)
		// cdb.Open draws its default pool from the first split of the
		// seed's stream.
		pools[ds] = crowd.NewPool(50, 0.8, 0.1, stats.NewRNG(crowdSeed).Split())
	}
	for i, o := range ops {
		d := data[o.dataset]
		q := rec.begin("query", i, -1)

		s := rec.begin("cql.parse", i, q)
		st, err := cql.Parse(o.stmt)
		rec.end(s)
		if err != nil {
			return c, err
		}
		sel, ok := st.(*cql.Select)
		if !ok {
			return c, fmt.Errorf("staged: %q is not a SELECT", o.stmt)
		}

		bp := rec.begin("exec.buildplan", i, q)
		p, err := exec.BuildPlan(sel, d.Catalog, d.Oracle, exec.PlanConfig{
			Sim:     sim.Gram2Jaccard,
			Epsilon: 0.3,
			Joiner: func(f sim.Func, left, right []string, eps float64) []sim.Pair {
				js := rec.begin("sim.join", i, bp)
				pairs := sim.Join(f, left, right, eps)
				rec.end(js)
				c.joins++
				c.pairs += len(pairs)
				return pairs
			},
		})
		rec.end(bp)
		if err != nil {
			return c, err
		}
		c.edges += p.G.NumEdges()
		c.components += len(p.G.ConnectedComponents())

		s = rec.begin("plan.greedy", i, q)
		dec := plan.Greedy(p, 0)
		rec.end(s)
		c.predicted += dec.PredictedTasks
		c.fixed += dec.FixedTasks

		run := rec.begin("exec.run", i, q)
		strat := &timedStrategy{inner: &cost.Expectation{}, rec: rec, op: i, parent: run}
		rep, err := exec.Run(context.Background(), p, exec.Options{
			Strategy:   strat,
			Redundancy: 5,
			Quality:    exec.MajorityVoting,
			Pool:       pools[o.dataset],
		})
		rec.end(run)
		if err != nil {
			return c, err
		}
		res, err := project(p, rep)
		rec.end(q)
		if err != nil {
			return c, err
		}

		c.queries++
		c.rounds += strat.rounds
		c.batchTasks += strat.tasks
		full, delta, hit := strat.inner.CacheStats()
		c.rescoreFull += full
		c.rescoreDelta += delta
		c.orderHits += hit
		c.tasks += rep.Metrics.Tasks
		c.assignments += rep.Assignments
		if got, _ := digest(res); i < len(want) && got != want[i] {
			c.mismatch++
		}
	}
	return c, nil
}

// project materialises a report the way DB.Exec does for a SELECT
// without GROUP BY / ORDER BY.
func project(p *exec.Plan, rep *exec.Report) (*cdb.Result, error) {
	res := &cdb.Result{
		Columns: p.ProjectionColumns(),
		Stats: cdb.Stats{
			Tasks:       rep.Metrics.Tasks,
			Rounds:      rep.Metrics.Rounds,
			Assignments: rep.Assignments,
			HITs:        rep.HITs,
			Dollars:     rep.Dollars,
			Precision:   rep.Metrics.Precision,
			Recall:      rep.Metrics.Recall,
			F1:          rep.Metrics.F1(),
		},
		Confidence: rep.Confidence,
	}
	for _, a := range rep.Answers {
		row, err := p.ProjectAnswer(a)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
