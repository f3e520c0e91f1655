package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cdb"
	"cdb/internal/crowd"
	"cdb/internal/reqid"
	"cdb/internal/stats"
)

// mergeParts reassembles scatter slices into the result a single node
// would have produced, field by field:
//
//   - Rows return to single-node order by sorting the union on each
//     slice's MergeKeys (plan-deterministic enumeration positions, see
//     exec.MergeKeys).
//   - Confidence and Provenance entries travel with their rows.
//   - Tasks, Assignments, Coalesced, CachedTasks and Inferred sum —
//     components never share tasks, so the per-shard counts partition
//     the whole run's.
//   - Rounds is the max: shards run their waves in lockstep with what
//     the single node would have done, just with fewer components each.
//   - HITs and Dollars are recomputed from the summed assignments —
//     HIT packing rounds up per run, so summing per-shard HITs would
//     overcharge relative to one node.
//   - Precision and recall are rebuilt from the summed ground-truth
//     counts each slice carries, replicating stats.PrecisionRecall's
//     empty-set conventions exactly.
//
// parts must be non-empty and ordered deterministically (the scatter
// path orders them by target shard id).
func mergeParts(parts []part) (*cdb.Result, error) {
	type mrow struct {
		key  []int
		cols []string
		conf float64
		prov cdb.AnswerProvenance
	}
	var merged []mrow
	anyConf, anyProv := false, false
	out := &cdb.Result{}
	truthTotal, truthCorrect := 0, 0
	for i, p := range parts {
		r := p.resp.Result
		sh := p.resp.Shard
		if r == nil || sh == nil {
			return nil, fmt.Errorf("cluster: shard %s returned no scatter sidecar", p.src)
		}
		if len(sh.MergeKeys) != len(r.Rows) {
			return nil, fmt.Errorf("cluster: shard %s sidecar has %d merge keys for %d rows",
				p.src, len(sh.MergeKeys), len(r.Rows))
		}
		if i == 0 {
			out.Columns = r.Columns
		}
		if r.Confidence != nil {
			anyConf = true
		}
		for j, cols := range r.Rows {
			c := 1.0
			if r.Confidence != nil {
				c = r.Confidence[j]
			}
			m := mrow{key: sh.MergeKeys[j], cols: cols, conf: c}
			if r.Provenance != nil {
				anyProv, m.prov = true, r.Provenance[j]
			}
			merged = append(merged, m)
		}
		truthTotal += sh.TruthTotal
		truthCorrect += sh.TruthCorrect

		s := r.Stats
		out.Stats.Tasks += s.Tasks
		out.Stats.Assignments += s.Assignments
		if s.Rounds > out.Stats.Rounds {
			out.Stats.Rounds = s.Rounds
		}
		out.Stats.Coalesced += s.Coalesced
		out.Stats.CachedTasks += s.CachedTasks
		out.Stats.Inferred += s.Inferred
		out.Stats.Lost += s.Lost
		out.Stats.Retried += s.Retried
		out.Stats.Hedged += s.Hedged
		out.Stats.Late += s.Late
		out.Stats.Duplicates += s.Duplicates
		out.Stats.RoundsTruncated += s.RoundsTruncated
		if s.Partial {
			out.Stats.Partial = true
			if out.Stats.Reason == "" {
				out.Stats.Reason = s.Reason
			}
		}
	}

	sort.SliceStable(merged, func(i, j int) bool {
		a, b := merged[i].key, merged[j].key
		for k := range a {
			if k >= len(b) {
				return false
			}
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	for _, m := range merged {
		out.Rows = append(out.Rows, m.cols)
	}
	if anyConf && len(merged) > 0 {
		out.Confidence = make([]float64, len(merged))
		for i, m := range merged {
			out.Confidence[i] = m.conf
		}
	}
	if anyProv && len(merged) > 0 {
		out.Provenance = make([]cdb.AnswerProvenance, len(merged))
		for i, m := range merged {
			out.Provenance[i] = m.prov
		}
	}

	out.Stats.HITs = crowd.DefaultPricing.HITs(out.Stats.Assignments)
	out.Stats.Dollars = crowd.DefaultPricing.Cost(out.Stats.Assignments)

	// stats.PrecisionRecall's conventions, over the merged sets.
	returned := len(out.Rows)
	switch {
	case returned == 0 && truthTotal == 0:
		out.Stats.Precision, out.Stats.Recall = 1, 1
	case returned == 0:
		out.Stats.Precision, out.Stats.Recall = 0, 0
	case truthTotal == 0:
		out.Stats.Precision, out.Stats.Recall = float64(truthCorrect)/float64(returned), 1
	default:
		out.Stats.Precision = float64(truthCorrect) / float64(returned)
		out.Stats.Recall = float64(truthCorrect) / float64(truthTotal)
	}
	out.Stats.F1 = stats.F1(out.Stats.Precision, out.Stats.Recall)

	out.Message = fmt.Sprintf("%d answers, %d tasks, %d rounds", len(out.Rows), out.Stats.Tasks, out.Stats.Rounds)
	if out.Stats.Partial {
		out.Message += fmt.Sprintf(" (partial: %s)", out.Stats.Reason)
	}
	if out.Stats.Coalesced+out.Stats.CachedTasks > 0 {
		out.Message += fmt.Sprintf(" (%d shared)", out.Stats.Coalesced+out.Stats.CachedTasks)
	}
	return out, nil
}

// requestIDFrom recovers the serving tier's correlation ID for the
// merged result, mirroring what a single node stamps on its own.
func requestIDFrom(ctx context.Context) string {
	return reqid.From(ctx).RequestID
}

// roundMerger turns per-shard round streams into the round stream a
// single node would emit: merged round r is released once every shard
// has either delivered its round r or finished, with a finished
// shard's final cumulative totals carried forward (wave alignment; the
// rule is proven by exec's TestShardedUnionBitIdentical).
type roundMerger struct {
	mu      sync.Mutex
	onRound func(RoundUpdate)
	updates map[string][]RoundUpdate
	done    map[string]bool
	emitted int
}

func newRoundMerger(targets []string, onRound func(RoundUpdate)) *roundMerger {
	m := &roundMerger{
		onRound: onRound,
		updates: make(map[string][]RoundUpdate, len(targets)),
		done:    make(map[string]bool, len(targets)),
	}
	for _, t := range targets {
		m.updates[t] = nil
		m.done[t] = false
	}
	return m
}

// deliver records shard's next round and emits any now-complete merged
// rounds. Runs on the shard's stream goroutine; emission order is
// serialized by the lock.
func (m *roundMerger) deliver(shard string, u RoundUpdate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.updates[shard] = append(m.updates[shard], u)
	m.emitReady()
}

// finish marks shard's stream complete.
func (m *roundMerger) finish(shard string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done[shard] = true
	m.emitReady()
}

// flush emits whatever rounds remain once every shard has finished.
func (m *roundMerger) flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for s := range m.done {
		m.done[s] = true
	}
	m.emitReady()
}

// emitReady releases merged rounds while every shard has caught up to
// them (delivered that round, or finished for good). Callers hold mu.
func (m *roundMerger) emitReady() {
	for {
		r := m.emitted + 1
		ready := true
		progress := false
		for s, ups := range m.updates {
			if len(ups) >= r {
				progress = true
				continue
			}
			if !m.done[s] {
				ready = false
				break
			}
		}
		if !ready || !progress {
			return
		}
		var merged RoundUpdate
		merged.Round = r
		for _, ups := range m.updates {
			if len(ups) >= r {
				u := ups[r-1]
				merged.Tasks += u.Tasks
				merged.Assignments += u.Assignments
				merged.Blue += u.Blue
				merged.Red += u.Red
				merged.Inferred += u.Inferred
				merged.Open += u.Open
				merged.TasksTotal += u.TasksTotal
				merged.AssignmentsTotal += u.AssignmentsTotal
			} else if len(ups) > 0 {
				last := ups[len(ups)-1]
				merged.Open += last.Open
				merged.TasksTotal += last.TasksTotal
				merged.AssignmentsTotal += last.AssignmentsTotal
			}
		}
		m.emitted = r
		m.onRound(merged)
	}
}
