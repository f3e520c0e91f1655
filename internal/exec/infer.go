package exec

import (
	"cdb/internal/graph"
	"cdb/internal/obs"
)

// Transitive-inference integration (see internal/graph/closure.go for
// the overlay itself). When Options.Transitive is on, the executor
// maintains one Closure per run, hands it to closure-aware strategies
// so they never ask entailed edges, and after every crowd round colors
// every entailed label into the graph — marked as inferred, not
// crowd-answered — so pruning, validity and answer assembly all see it
// without spending a HIT.

var mInferred = obs.Default.Counter("cdb_exec_inferred_edges_total")

// ClosureCarrier is implemented by strategies that can consult the
// transitive-inference overlay (Expectation, Budget). The executor
// installs the run's closure before the first round and removes it
// after.
type ClosureCarrier interface {
	SetClosure(*graph.Closure)
}

// AnswerProvenance breaks one answer's supporting edges down by how
// their labels were decided.
type AnswerProvenance struct {
	// Crowd counts edges answered by crowd work (any crowdsourcing
	// path, including shared-resolver verdicts).
	Crowd int `json:"crowd"`
	// Inferred counts edges labeled by transitive inference.
	Inferred int `json:"inferred,omitempty"`
	// Prior counts edges decided without either — exact equi-join
	// matches pre-colored at plan build.
	Prior int `json:"prior,omitempty"`
}

// InferredTask couples a task's canonical identity with the verdict
// transitive inference derived for it, for publication to a shared
// serving layer.
type InferredTask struct {
	Req   TaskRequest
	Value bool
}

// InferredPublisher is optionally implemented by a TaskResolver that
// wants inferred verdicts pushed into its cross-query cache, so one
// query's closure can answer another query's task without crowd work.
type InferredPublisher interface {
	PublishInferred(tasks []InferredTask)
}

func (rep *Report) markCrowd(e int) {
	if rep.crowdEdges == nil {
		rep.crowdEdges = make(map[int]bool)
	}
	rep.crowdEdges[e] = true
}

// applyInference colors every entailed label into the graph after a
// round of crowd answers: Update folds the round's verdicts into the
// overlay, then one pass over the valid uncolored edges applies what
// they entail (one pass suffices — entailed labels add no closure
// information). Inferred edges inherit the weakest confidence on their
// entailing path and are tracked for Stats.Inferred and per-answer
// provenance. When the resolver supports it, the inferred verdicts are
// also published for cross-query reuse. Returns the number of edges
// inferred.
func (rep *Report) applyInference(p *Plan, c *graph.Closure, opts Options) int {
	g := p.G
	c.Update()
	publisher, wantPub := opts.Resolver.(InferredPublisher)
	var pub []InferredTask
	n := 0
	for _, id := range g.ValidUncolored() {
		col, conf, ok := c.Entails(id)
		if !ok {
			continue
		}
		g.SetColor(id, col)
		if rep.inferredEdges == nil {
			rep.inferredEdges = make(map[int]bool)
		}
		rep.inferredEdges[id] = true
		rep.setEdgeConf(id, conf)
		n++
		if wantPub {
			pub = append(pub, InferredTask{
				Req: TaskRequest{
					Edge:  id,
					Key:   p.TaskKey(id),
					Truth: p.Truth[id],
					Prior: g.Edge(id).W,
					K:     opts.Redundancy,
				},
				Value: col == graph.Blue,
			})
		}
	}
	if n > 0 {
		rep.Inferred += n
		mInferred.Add(int64(n))
		if wantPub {
			publisher.PublishInferred(pub)
		}
	}
	return n
}

// assembleProvenance fills Report.Provenance, aligned with Answers.
func (rep *Report) assembleProvenance() {
	rep.Provenance = make([]AnswerProvenance, len(rep.Answers))
	for i, a := range rep.Answers {
		pv := &rep.Provenance[i]
		for _, eid := range a.Edges {
			switch {
			case rep.inferredEdges[eid]:
				pv.Inferred++
			case rep.crowdEdges[eid]:
				pv.Crowd++
			default:
				pv.Prior++
			}
		}
	}
}
