package exec

import (
	"context"
	"fmt"
	"strings"

	"cdb/internal/obs"
)

// Resolver metrics: tasks routed through a shared serving layer and how
// many of them were answered without fresh crowd work.
var (
	mResolved    = obs.Default.Counter("cdb_exec_resolver_tasks_total")
	mResCoalesce = obs.Default.Counter("cdb_exec_resolver_coalesced_total")
	mResCached   = obs.Default.Counter("cdb_exec_resolver_cached_total")
	mResLedger   = obs.Default.Counter("cdb_exec_resolver_ledger_total")
)

// TaskRequest is one crowd task handed to a TaskResolver: the edge it
// colors in this query's graph plus the content-canonical identity that
// lets a serving layer recognize the same question asked by another
// query.
type TaskRequest struct {
	// Edge is the graph edge id within the submitting query.
	Edge int
	// Key canonically identifies the task by content (see Plan.TaskKey):
	// two queries asking the crowd to compare the same pair of cell
	// values under the same predicate produce equal keys.
	Key string
	// Truth drives simulated workers, exactly as on the other paths.
	Truth bool
	// Prior is the optimizer's matching probability for the edge.
	Prior float64
	// K is the redundancy (worker answers requested).
	K int
}

// TaskVerdict is a resolver's ruling on one task.
type TaskVerdict struct {
	// Value is the verdict (true = the pair matches).
	Value bool
	// Confidence is the aggregation confidence in Value.
	Confidence float64
	// Assignments is the number of worker answers backing the verdict,
	// charged to the submitting query regardless of sharing — per-query
	// Stats stay identical whether or not another query already paid
	// for the HIT; the engine's own counters report the actual savings.
	Assignments int
	// Coalesced marks a task that attached to another query's in-flight
	// HIT; Cached marks one served from the shared verdict cache.
	Coalesced bool
	Cached    bool
	// Ledger marks a verdict replayed from the durable crowd-work
	// ledger: paid for before the last restart, charged nothing now.
	// Deliberately not folded into Cached — wire-visible Stats must
	// stay identical between a warm resume and an uninterrupted run,
	// so ledger provenance travels on the engine's introspection and
	// counters instead.
	Ledger bool
}

// TaskResolver intercepts a round's crowdsourcing. The engine's HIT
// coalescer implements it to dispatch identical tasks from concurrent
// queries once and fan the verdict out to every subscriber.
// Implementations must be safe for concurrent use by many queries and
// must return a verdict for every requested edge (or an error).
type TaskResolver interface {
	Resolve(ctx context.Context, reqs []TaskRequest) (map[int]TaskVerdict, error)
}

// TaskKey renders the canonical content key of a crowd task: task kind,
// predicate label, and the two cell values, with the sides ordered
// lexicographically (a "do these match?" HIT is symmetric, so queries
// phrasing the join in either direction coalesce). Selection tasks pin
// the constant on the right. An OrderPlan's comparison ("cmp") already
// has the smaller value on the left, so it is keyed as asked.
func (p *Plan) TaskKey(edgeID int) string {
	pred, left, right := p.TaskDescription(edgeID)
	kind := "join"
	switch {
	case p.compare:
		kind = "cmp"
	case p.Bindings[p.G.Edge(edgeID).Pred].RightCol < 0:
		kind = "sel"
	case right < left:
		left, right = right, left
	}
	var b strings.Builder
	b.Grow(len(kind) + len(pred) + len(left) + len(right) + 3)
	b.WriteString(kind)
	b.WriteByte('\x1f')
	b.WriteString(pred)
	b.WriteByte('\x1f')
	b.WriteString(left)
	b.WriteByte('\x1f')
	b.WriteString(right)
	return b.String()
}

// collectResolved runs one round through a shared TaskResolver: the
// serving layer owns answer collection and aggregation, so it returns
// each task's ruling for conclude to take as served. A batch with
// any edge left unruled fails before the report is touched. Metadata
// gets the task and verdict rows only (individual assignments belong to
// the owning query's resolver and are not re-attributed to
// subscribers).
func (rep *Report) collectResolved(ctx context.Context, p *Plan, batch []int, opts Options) (rulings map[int]TaskVerdict, asks int, err error) {
	reqs := make([]TaskRequest, len(batch))
	for i, e := range batch {
		reqs[i] = TaskRequest{
			Edge:  e,
			Key:   p.TaskKey(e),
			Truth: p.Truth[e],
			Prior: p.G.Edge(e).W,
			K:     opts.Redundancy,
		}
	}
	rulings, err = opts.Resolver.Resolve(ctx, reqs)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range batch {
		if _, ok := rulings[e]; !ok {
			return nil, 0, fmt.Errorf("exec: resolver returned no verdict for edge %d", e)
		}
	}
	for _, e := range batch {
		v := rulings[e]
		asks += v.Assignments
		mResolved.Inc()
		if v.Coalesced {
			rep.Coalesced++
			mResCoalesce.Inc()
		}
		if v.Cached {
			rep.CachedTasks++
			mResCached.Inc()
		}
		if v.Ledger {
			rep.LedgerTasks++
			mResLedger.Inc()
		}
	}
	return rulings, asks, nil
}
