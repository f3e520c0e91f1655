// Package plan implements CDB's statistics-free greedy multi-join
// planner. The executor already materializes, per CROWDJOIN predicate,
// the candidate edges the similarity join emits — that visible
// selectivity (candidate-edge counts plus similarity-mass histograms)
// is the only statistic the planner consults. Joins are
// ordered greedily by expected crowd cost (fewest live candidate edges
// first); after each pick a semijoin-style survivor propagation shrinks
// the plan's view of the remaining tables, and a predicate left with
// zero candidates proves the answer set empty, so the plan terminates
// early with zero further HITs.
//
// Planning never issues crowd work: it reads the instantiated graph,
// nothing else. In a crowd database planning cost is dwarfed by HIT
// cost by many orders of magnitude, so the planner optimizes — and the
// plan benchmark measures — HITs avoided, not CPU.
//
// The chosen order reaches the graph executor as a term of the one
// labeling-order mechanism: Decision.Strategy returns cost.Expectation
// with the order's predicate ranks as the leading key of its
// comparator, so a planned run packs, traces and infers like any other.
// The planner installs no crowd of its own: a planned run draws its
// verdicts from whatever crowd path the run has (pool, CDB+, markets or
// the transport). Under a content-pure resolver (crowd.PureVerdict, the
// serving engine's coalescer and PureResolver) its answers are
// bit-identical to any other complete strategy's: an embedding is an
// answer iff all its edges would-verdict blue, independent of the order
// they are asked in.
package plan

import (
	"fmt"
	"strings"
	"time"

	"cdb/internal/exec"
	"cdb/internal/graph"
)

// DefaultBins is the similarity-histogram resolution of plan steps.
const DefaultBins = 8

// Step is one planned join step: a predicate, where it landed in the
// order, and what the planner predicted it would cost.
type Step struct {
	// Pred indexes the predicate in the query structure (statement
	// order of the WHERE clause).
	Pred int `json:"pred"`
	// Predicate is the diagnostic label, e.g.
	// "Paper.author CROWDJOIN Researcher.name".
	Predicate string `json:"predicate"`
	// CandidateEdges counts the predicate's bound edges (pre-colored
	// equi-join matches included): a live-touching bind leaves out the
	// pairs between two dead tuples (exec.PlanConfig.LiveOnly).
	CandidateEdges int `json:"candidate_edges"`
	// PredictedEdges is the crowd tasks this step is expected to issue:
	// uncolored candidates whose both endpoints still survive the
	// earlier steps' semijoin propagation.
	PredictedEdges int `json:"predicted_edges"`
	// Histogram is the similarity-mass histogram of the predicate's
	// uncolored candidates over [0,1] in equal-width bins.
	Histogram []int `json:"histogram,omitempty"`
	// EarlyExit marks the step at which the plan proved the answer set
	// empty: zero surviving candidates, zero further HITs.
	EarlyExit bool `json:"early_exit,omitempty"`
}

// Decision is the planner's output: the predicate execution order with
// per-step predictions, plus the same prediction replayed over
// statement order for comparison.
type Decision struct {
	// Order lists predicate indices in execution order. When the plan
	// exits early the order ends at the proving step; later predicates
	// are never asked.
	Order []int
	// Steps aligns with Order.
	Steps []Step
	// EarlyExit reports a plan-time proof of zero answers;
	// EarlyExitStep indexes the proving step (-1 when none).
	EarlyExit     bool
	EarlyExitStep int
	// PredictedTasks is the total crowd tasks the plan expects to
	// issue; FixedTasks is the same prediction for statement order.
	PredictedTasks int
	FixedTasks     int
	// PlanningMicros is the wall-clock planning time.
	PlanningMicros int64
}

// JoinOrder renders the order compactly for introspection columns,
// e.g. "p2→p0→p1" ("p2→∅" when step p2 proved the plan empty).
func (d *Decision) JoinOrder() string {
	var b strings.Builder
	for i, p := range d.Order {
		if i > 0 {
			b.WriteString("→")
		}
		fmt.Fprintf(&b, "p%d", p)
	}
	if d.EarlyExit {
		b.WriteString("→∅")
	}
	return b.String()
}

// EarlyExits counts plan-time early-exit points (0 or 1).
func (d *Decision) EarlyExits() int {
	if d.EarlyExit {
		return 1
	}
	return 0
}

// Greedy plans p greedily and prices the statement-order alternative
// with the same model, so the decision carries its own predicted
// savings. The graph is only read, never mutated, and no crowd work is
// issued.
func Greedy(p *exec.Plan, bins int) *Decision {
	start := time.Now()
	d := simulate(p, bins, true)
	d.FixedTasks = simulate(p, bins, false).PredictedTasks
	d.PlanningMicros = time.Since(start).Microseconds()
	return d
}

// simulate runs the shared planning loop: pick the next predicate
// (cheapest-first when greedy, statement order otherwise), record its
// predicted cost, stop on a zero-candidate proof, and semijoin-narrow
// the survivors for the following picks.
func simulate(p *exec.Plan, bins int, greedy bool) *Decision {
	if bins <= 0 {
		bins = DefaultBins
	}
	g := p.G
	nPreds := len(p.S.Preds)
	byPred := make([][]int, nPreds)
	for e := 0; e < g.NumEdges(); e++ {
		_, _, pred := g.Ends(e)
		byPred[pred] = append(byPred[pred], e)
	}

	surviving := make([]bool, g.NumVertices())
	for i := range surviving {
		surviving[i] = true
	}
	keep := make([]bool, g.NumVertices())

	d := &Decision{EarlyExitStep: -1}
	done := make([]bool, nPreds)
	for len(d.Order) < nPreds {
		pick := -1
		pickCost := 0
		if greedy {
			for q := 0; q < nPreds; q++ {
				if done[q] {
					continue
				}
				_, cost := effective(g, byPred[q], surviving)
				if pick < 0 || cost < pickCost {
					pick, pickCost = q, cost
				}
			}
		} else {
			pick = len(d.Order)
			_, pickCost = effective(g, byPred[pick], surviving)
		}
		done[pick] = true
		support, _ := effective(g, byPred[pick], surviving)
		st := Step{
			Pred:           pick,
			Predicate:      p.S.Preds[pick].Name,
			CandidateEdges: len(byPred[pick]),
			PredictedEdges: pickCost,
			Histogram:      histogram(g, byPred[pick], bins),
		}
		d.Order = append(d.Order, pick)
		if support == 0 {
			// No candidate pair survives this predicate: every answer
			// embedding needs one, so the answer set is provably empty
			// and nothing after this step may issue crowd work.
			st.EarlyExit = true
			d.EarlyExit = true
			d.EarlyExitStep = len(d.Steps)
			d.Steps = append(d.Steps, st)
			break
		}
		d.PredictedTasks += pickCost
		d.Steps = append(d.Steps, st)

		// Semijoin survivor propagation: on both sides of the picked
		// predicate, a tuple stays alive only while it has a non-red
		// candidate to a surviving partner. This over-approximates the
		// answer-participating tuples (validity is stricter), which is
		// exactly what makes the zero-candidate early exit sound.
		qp := p.S.Preds[pick]
		for _, e := range byPred[pick] {
			if g.Color(e) == graph.Red {
				continue
			}
			if u, v, _ := g.Ends(e); surviving[u] && surviving[v] {
				keep[u] = true
				keep[v] = true
			}
		}
		for _, t := range []int{qp.A, qp.B} {
			for row := 0; row < g.TupleCount(t); row++ {
				v := g.VertexID(t, row)
				surviving[v] = surviving[v] && keep[v]
				keep[v] = false
			}
		}
	}
	return d
}

// effective counts predicate candidates among the surviving tuples:
// support is every non-red candidate (blue pre-colored matches keep an
// answer alive at zero cost), cost the uncolored subset — the crowd
// tasks executing the predicate now would issue.
func effective(g *graph.Graph, edges []int, surviving []bool) (support, cost int) {
	for _, e := range edges {
		c := g.Color(e)
		if u, v, _ := g.Ends(e); c == graph.Red || !surviving[u] || !surviving[v] {
			continue
		}
		support++
		if c == graph.Unknown {
			cost++
		}
	}
	return support, cost
}

// histogram bins the similarity mass of the uncolored candidates over
// [0,1] in equal-width bins.
func histogram(g *graph.Graph, edges []int, bins int) []int {
	h := make([]int, bins)
	for _, e := range edges {
		if g.Color(e) != graph.Unknown {
			continue
		}
		b := int(g.Weight(e) * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		h[b]++
	}
	return h
}

// Explained is the wire-ready plan description; the public cdb.Plan is
// an alias of it, and POST /v1/explain serves it verbatim. Its JSON
// schema is pinned by a golden file in client/wire_test.go.
type Explained struct {
	// Statement is the canonical rendering of the planned SELECT.
	Statement string `json:"statement"`
	// Structure classifies the query shape: single-table, chain, star,
	// tree or cyclic.
	Structure string `json:"structure"`
	// Tables lists the FROM tables (selection pseudo-tables excluded).
	Tables []string `json:"tables"`
	// Greedy reports whether execution follows the greedy order: false
	// whenever the planner does not decide the order (no planner, or a
	// BUDGET clause).
	Greedy bool `json:"greedy"`
	// JoinOrder is the compact order string, e.g. "p2→p0→p1".
	JoinOrder string `json:"join_order"`
	// Steps is the planned order with per-step predictions.
	Steps []Step `json:"steps"`
	// EarlyExit/EarlyExitStep report a plan-time zero-answer proof
	// (step index, -1 when none): the query completes with zero crowd
	// spend past that step.
	EarlyExit     bool `json:"early_exit,omitempty"`
	EarlyExitStep int  `json:"early_exit_step"`
	// PredictedTasks vs FixedTasks is the planner's own estimate of the
	// crowd tasks this order saves over statement order.
	PredictedTasks int `json:"predicted_tasks"`
	FixedTasks     int `json:"fixed_tasks"`
	// PlanningMicros is the wall-clock planning time; EXPLAIN itself
	// issues zero crowd assignments.
	PlanningMicros int64 `json:"planning_us"`
}

// Describe renders a decision for the wire. greedy reports whether the
// executor follows the greedy order.
func Describe(p *exec.Plan, d *Decision, greedy bool) *Explained {
	ex := &Explained{
		Statement:      p.Stmt.String(),
		Structure:      p.S.Kind().String(),
		Greedy:         greedy,
		JoinOrder:      d.JoinOrder(),
		Steps:          d.Steps,
		EarlyExit:      d.EarlyExit,
		EarlyExitStep:  d.EarlyExitStep,
		PredictedTasks: d.PredictedTasks,
		FixedTasks:     d.FixedTasks,
		PlanningMicros: d.PlanningMicros,
	}
	for i, name := range p.S.Tables {
		if p.Tables[i] != nil {
			ex.Tables = append(ex.Tables, name)
		}
	}
	return ex
}
