package plan

import (
	"context"

	"cdb/internal/cost"
	"cdb/internal/crowd"
	"cdb/internal/exec"
)

// Strategy is the single place a planned order becomes a labeling
// order: cost.Expectation with each predicate's position in Order as the
// leading key of its comparator. Edges of the first predicate that still
// has askable ones fill a round (they never share a candidate, so none
// conflicts with another), every askable edge of a later predicate
// conflicts with one of them and waits, and red answers invalidate later
// predicates' edges before they are ever asked. Predicates past an early
// exit rank last: validity already leaves them nothing askable. Because
// it is the one strategy, a planned run keeps what the unplanned one has —
// conflict-free packing, the score and batch spans.
func (d *Decision) Strategy(p *exec.Plan) *cost.Expectation {
	rank := make([]int, len(p.S.Preds))
	for i := range rank {
		rank[i] = len(d.Order)
	}
	for i, pred := range d.Order {
		rank[pred] = i
	}
	return &cost.Expectation{Priority: rank}
}

// PureResolver resolves every task through crowd.PureVerdict, making
// verdicts a pure function of (seed, task key, redundancy) — the same
// content-pure discipline the serving engine's coalescer follows, minus
// the sharing machinery. A caller installs it as exec.Options.Resolver
// to compare two orders bit-identically (cdbench's plan experiment
// does): asking the same question in a different round, or never
// needing to ask it at all, cannot perturb any other verdict. Stateless
// and safe for concurrent use.
type PureResolver struct {
	Seed uint64
	Pool *crowd.Pool
}

// Resolve implements exec.TaskResolver.
func (r *PureResolver) Resolve(_ context.Context, reqs []exec.TaskRequest) (map[int]exec.TaskVerdict, error) {
	out := make(map[int]exec.TaskVerdict, len(reqs))
	for _, req := range reqs {
		value, conf, asks := crowd.PureVerdict(r.Seed, r.Pool, req.Key, req.Truth, req.Prior, req.K)
		out[req.Edge] = exec.TaskVerdict{Value: value, Confidence: conf, Assignments: asks}
	}
	return out, nil
}
