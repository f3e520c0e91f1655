package baselines

import (
	"cdb/internal/graph"
)

// GreedyBudget is the budget baseline of §6.3.3: fix the best table
// order, pick the highest-weight unasked edge of the first predicate,
// and extend the partial chain depth-first along the order, always
// taking the heaviest compatible edge. When an extension comes back
// red (or a dead end is reached) the walk restarts. One task per
// round; the statement's account (exec.Account) caps how many — the
// paper shows its recall grows far more slowly than CDB's
// candidate-driven selection.
type GreedyBudget struct {
	order       []int
	initialized bool
	depth       int   // next predicate index in order to extend
	tabAssign   []int // table index -> chosen vertex, -1 unset
	lastEdge    int   // edge asked in the previous round, -1 none
}

// NewGreedyBudget builds the baseline.
func NewGreedyBudget() *GreedyBudget { return &GreedyBudget{lastEdge: -1} }

// Name implements the Strategy contract.
func (s *GreedyBudget) Name() string { return "Baseline" }

func (s *GreedyBudget) init(g *graph.Graph) {
	s.order = DecoOrder(g)
	s.reset(g)
	s.initialized = true
}

func (s *GreedyBudget) reset(g *graph.Graph) {
	s.depth = 0
	s.lastEdge = -1
	s.tabAssign = make([]int, g.NumTables())
	for i := range s.tabAssign {
		s.tabAssign[i] = -1
	}
}

// NextRound implements the Strategy contract: one greedy task.
func (s *GreedyBudget) NextRound(g *graph.Graph) []int {
	if !s.initialized {
		s.init(g)
	}
	// If the previous extension failed (red), restart the walk; if the
	// chain is complete, start hunting for the next answer.
	if s.lastEdge >= 0 && g.Color(s.lastEdge) != graph.Blue {
		s.reset(g)
	} else if s.depth >= len(s.order) {
		s.reset(g)
	}
	// Guard against walking confirmed-blue cycles without ever finding
	// a new question.
	for iter := 0; iter <= g.NumEdges()+len(s.order); iter++ {
		// Ask the heaviest unresolved extension (the paper's "select the
		// edge with large probability … then depth-first").
		if e := s.bestEdge(g, s.order[s.depth]); e >= 0 {
			ed := g.Edge(e)
			s.tabAssign[g.TableOf(ed.U)] = ed.U
			s.tabAssign[g.TableOf(ed.V)] = ed.V
			s.depth++
			s.lastEdge = e
			return []int{e}
		}
		// No unresolved extension here: traverse a confirmed blue edge
		// for free, hoping for unresolved edges deeper in the chain.
		if b := s.knownBlueEdge(g, s.order[s.depth]); b >= 0 {
			ed := g.Edge(b)
			s.tabAssign[g.TableOf(ed.U)] = ed.U
			s.tabAssign[g.TableOf(ed.V)] = ed.V
			s.depth++
			s.lastEdge = b
			if s.depth >= len(s.order) {
				s.reset(g)
			}
			continue
		}
		// Dead end: restart unless already at the root with nothing
		// left anywhere.
		if s.depth == 0 && s.lastEdge < 0 {
			return nil
		}
		s.reset(g)
		s.lastEdge = -2 // mark that we already restarted once this call
	}
	return nil
}

// knownBlueEdge returns a blue edge of predicate p compatible with the
// current partial chain (any blue edge of p for a fresh walk), or -1.
func (s *GreedyBudget) knownBlueEdge(g *graph.Graph, p int) int {
	pd := g.S.Preds[p]
	au, av := s.tabAssign[pd.A], s.tabAssign[pd.B]
	if au < 0 && av < 0 {
		// Fresh walk: re-enter through any confirmed blue edge so budget
		// can extend partially-resolved chains.
		for e := 0; e < g.NumEdges(); e++ {
			if ed := g.Edge(e); ed.Pred == p && ed.Color == graph.Blue {
				return e
			}
		}
		return -1
	}
	anchor := au
	if anchor < 0 {
		anchor = av
	}
	for _, e := range g.EdgesAt(anchor, p) {
		ed := g.Edge(int(e))
		if ed.Color != graph.Blue {
			continue
		}
		if au >= 0 && ed.U != au && ed.V != au {
			continue
		}
		if av >= 0 && ed.U != av && ed.V != av {
			continue
		}
		return int(e)
	}
	return -1
}

// bestEdge returns the heaviest uncolored edge of predicate p
// compatible with the current partial chain, or -1.
func (s *GreedyBudget) bestEdge(g *graph.Graph, p int) int {
	pd := g.S.Preds[p]
	au, av := s.tabAssign[pd.A], s.tabAssign[pd.B]
	best, bestW := -1, -1.0
	consider := func(e int) {
		ed := g.Edge(e)
		if ed.Color != graph.Unknown {
			return
		}
		if au >= 0 && ed.U != au && ed.V != au {
			return
		}
		if av >= 0 && ed.U != av && ed.V != av {
			return
		}
		if ed.W > bestW {
			best, bestW = e, ed.W
		}
	}
	anchor := au
	if anchor < 0 {
		anchor = av
	}
	if anchor < 0 {
		for _, e := range sortedEdgeIDs(g, p) {
			consider(e)
		}
		return best
	}
	for _, e := range g.EdgesAt(anchor, p) {
		consider(int(e))
	}
	return best
}

// Flush implements the Strategy contract: every unknown edge in one
// round, for the account to cut at what the budget leaves. Without
// fresh answers between picks the walk cannot extend reliably, so the
// flush drains edges heaviest-first along the predicate order.
func (s *GreedyBudget) Flush(g *graph.Graph) []int {
	if !s.initialized {
		s.init(g)
	}
	var all []int
	for _, p := range s.order {
		for _, e := range sortedEdgeIDs(g, p) {
			if g.Color(e) == graph.Unknown {
				all = append(all, e)
			}
		}
	}
	return all
}
