// Package exec ties CDB together: it binds a parsed CQL query against
// the catalog, instantiates the tuple-level query graph (§4) via
// similarity joins, and runs Algorithm 1 (Appendix B): repeatedly
// select tasks (cost control), batch the non-conflicting ones (latency
// control), crowdsource them with redundancy and aggregate answers
// (quality control), color the graph, and finally collect the answers.
package exec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cdb/internal/cql"
	"cdb/internal/graph"
	"cdb/internal/obs"
	"cdb/internal/sim"
	"cdb/internal/table"
)

// mGraphBuild times BuildPlan without its similarity joins, which
// cdb_sim_join_seconds already covers. The two bind counters are what
// the bind found (candidate pairs, summed over predicates) and what it
// kept (edges): one minus their ratio is the share of the statements'
// graphs a LiveOnly bind found dead.
var (
	mGraphBuild     = obs.Default.Histogram("cdb_exec_graph_build_seconds", obs.DurationBuckets)
	mBindCandidates = obs.Default.Counter("cdb_exec_bind_candidates_total")
	mBindEdges      = obs.Default.Counter("cdb_exec_bind_edges_total")
)

// ErrStatement marks a SELECT that does not bind against the catalog:
// a table listed twice, an unqualified or unknown column, a predicate
// within one table, a structure the predicates leave disconnected. The
// statement is at fault, not the system. (A FROM table the catalog
// lacks is table.ErrUnknownTable.)
var ErrStatement = errors.New("statement does not bind")

// Oracle supplies the simulation ground truth: whether two cell values
// truly denote the same entity. Real deployments have no oracle — it
// exists to drive simulated workers and to score results, mirroring
// the paper's labelled datasets.
type Oracle interface {
	// JoinMatch reports whether leftVal (from leftTable.leftCol) and
	// rightVal (from rightTable.rightCol) truly join.
	JoinMatch(leftTable, leftCol, rightTable, rightCol, leftVal, rightVal string) bool
	// SelMatch reports whether val (from table.col) truly satisfies the
	// CROWDEQUAL constant.
	SelMatch(tbl, col, val, constant string) bool
}

// ColumnOracle is an optional extension of Oracle for stores that know
// truth as an entity id per cell value. BuildPlan then resolves each
// column of a crowd predicate once and compares ids per candidate pair,
// instead of handing the oracle two strings per pair.
type ColumnOracle interface {
	// ColumnEntities returns the semantic domain tbl.col draws from (""
	// when unknown) and, per value, its entity id in that domain (-1
	// when unknown). Two cells truly match iff their domains are equal
	// and non-empty and their ids are equal and non-negative.
	ColumnEntities(tbl, col string, vals []string) (domain string, ids []int)
}

// joinTruth returns the ground truth of a CROWDJOIN's candidate pairs by
// row index: entity ids compared per pair when the oracle resolves
// whole columns, JoinMatch per pair otherwise.
func joinTruth(orc Oracle, lt, lc, rt, rc string, lvals, rvals []string) func(i, j int) bool {
	co, ok := orc.(ColumnOracle)
	if !ok {
		return func(i, j int) bool { return orc.JoinMatch(lt, lc, rt, rc, lvals[i], rvals[j]) }
	}
	ld, lids := co.ColumnEntities(lt, lc, lvals)
	rd, rids := co.ColumnEntities(rt, rc, rvals)
	if ld == "" || ld != rd {
		return func(int, int) bool { return false }
	}
	return func(i, j int) bool { return lids[i] >= 0 && lids[i] == rids[j] }
}

// selTruth is joinTruth for a CROWDEQUAL: the column against a constant
// of the same column's domain.
func selTruth(orc Oracle, tbl, col string, vals []string, constant string) func(i int) bool {
	co, ok := orc.(ColumnOracle)
	if !ok {
		return func(i int) bool { return orc.SelMatch(tbl, col, vals[i], constant) }
	}
	d, ids := co.ColumnEntities(tbl, col, vals)
	_, cid := co.ColumnEntities(tbl, col, []string{constant})
	if d == "" || cid[0] < 0 {
		return func(int) bool { return false }
	}
	return func(i int) bool { return ids[i] == cid[0] }
}

// ExactOracle is the trivial oracle for clean data: values match iff
// equal after case folding. Useful in tests and the quickstart.
type ExactOracle struct{}

// JoinMatch implements Oracle.
func (ExactOracle) JoinMatch(_, _, _, _, l, r string) bool {
	return strings.EqualFold(strings.TrimSpace(l), strings.TrimSpace(r))
}

// SelMatch implements Oracle.
func (ExactOracle) SelMatch(_, _, v, c string) bool {
	return strings.EqualFold(strings.TrimSpace(v), strings.TrimSpace(c))
}

// PredBinding records how a structure predicate maps back to the CQL
// query: the column index on each side (-1 for the selection constant
// side).
type PredBinding struct {
	Pred     cql.Predicate
	LeftTab  int // structure table index
	RightTab int
	LeftCol  int
	RightCol int // -1 for selections
}

// Plan is a bound, instantiated query ready for execution.
type Plan struct {
	Stmt     *cql.Select
	S        *graph.Structure
	G        *graph.Graph
	Truth    []bool // ground truth per edge (true = should be Blue)
	Bindings []PredBinding
	// TableIdx maps FROM table names (lower-cased) to structure index.
	TableIdx map[string]int
	// Tables holds the bound *table.Table per structure index (nil for
	// selection pseudo-tables).
	Tables []*table.Table
	// Orc and Cfg are retained for derived helpers (e.g. the ER
	// baselines' side-dedup oracle).
	Orc Oracle
	Cfg PlanConfig
	// Candidates counts the candidate pairs the bind found, over all
	// predicates; G.NumEdges() of them became edges (all of them, unless
	// Cfg.LiveOnly dropped some).
	Candidates int
}

// PlanConfig controls graph instantiation.
type PlanConfig struct {
	// Sim is the similarity function used as matching probability
	// (§4.1); the paper's default is 2-gram Jaccard.
	Sim sim.Func
	// Epsilon prunes edges with similarity below it (default 0.3).
	Epsilon float64
	// Joiner, when set, replaces sim.Join for CROWDJOIN graph
	// instantiation — the engine plugs in its shared similarity-join
	// cache here so concurrent queries over the same table pair
	// tokenize and index once. The returned slice may be shared and
	// must not be mutated; nil falls back to sim.Join.
	Joiner func(f sim.Func, left, right []string, eps float64) []sim.Pair
	// LiveOnly binds only the candidate pairs that touch a possibly-live
	// tuple (see liveness): every other pair is never valid, never
	// asked, in no answer and in no bundle cost.Expectation scores, so a
	// run under that order — plain, planned, budgeted or with the
	// closure — is the full bind's run with the edges renumbered.
	// Anything that reads the plan by edge id or by whole candidate set
	// (a sampler, a tree baseline) needs the default. A statement with nothing but CROWDJOINs has nothing to
	// start a mask from and binds in full either way.
	LiveOnly bool
}

// DefaultPlanConfig mirrors the paper's settings.
func DefaultPlanConfig() PlanConfig {
	return PlanConfig{Sim: sim.Gram2Jaccard, Epsilon: 0.3}
}

// candidates is one predicate's edges-to-be, in edge order: a Joiner's
// slice walked in place, the chunks a streamed join filled, or the list
// of rows a selection or a traditional join kept.
type candidates struct {
	chunks [][]sim.Pair
	one    [1][]sim.Pair // backs chunks when the pairs are one slice
	// pairs backs chunks when a streamed or masked join filled them; its
	// pooled chunks go back once the graph holds the edges.
	pairs sim.Pairs
	// lvals and rvals are a CROWDJOIN's columns; nulls says one of them
	// holds a CNULL cell: a pair on such a cell is no candidate.
	lvals, rvals []string
	nulls        bool
	// deferred marks a CROWDJOIN a LiveOnly bind has yet to run.
	deferred bool
	// truth is the ground truth by row pair; nil for a traditional
	// predicate, whose edges are born Blue.
	truth func(i, j int) bool
}

// null reports whether pr sits on a CNULL cell, which cannot join.
func (c *candidates) null(pr sim.Pair) bool {
	return c.nulls && (c.lvals[pr.Left] == "" || c.rvals[pr.Right] == "")
}

// BuildPlan binds stmt against the catalog and instantiates the query
// graph. The oracle labels every edge with its true color for the
// crowd simulator.
func BuildPlan(stmt *cql.Select, cat *table.Catalog, orc Oracle, cfg PlanConfig) (*Plan, error) {
	start := time.Now()
	var joinTime time.Duration
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = 0.3
	}
	// A FROM table or a selection's constant makes a table, a WHERE term
	// a predicate: sized once.
	nTables, nPreds := len(stmt.From)+len(stmt.Where), len(stmt.Where)
	p := &Plan{Stmt: stmt, TableIdx: map[string]int{}, Orc: orc, Cfg: cfg,
		Tables: make([]*table.Table, 0, nTables), Bindings: make([]PredBinding, 0, nPreds)}
	s := &graph.Structure{Tables: make([]string, 0, nTables), Preds: make([]graph.QPred, 0, nPreds)}
	for _, name := range stmt.From {
		key := strings.ToLower(name)
		if _, dup := p.TableIdx[key]; dup {
			return nil, fmt.Errorf("exec: %w: table %s listed twice in FROM (self-joins need distinct aliases)", ErrStatement, name)
		}
		tb, ok := cat.Get(name)
		if !ok {
			return nil, fmt.Errorf("exec: %w %s", table.ErrUnknownTable, name)
		}
		p.TableIdx[key] = len(s.Tables)
		s.Tables = append(s.Tables, tb.Schema.Name)
		p.Tables = append(p.Tables, tb)
	}

	// Every predicate's candidates are collected first, cands[i] for
	// predicate i; the graph and p.Truth are then sized once and each edge
	// is written once, straight from where its candidate was stored.
	cands := make([]candidates, len(stmt.Where))
	counts := make([]int, len(s.Tables), nTables)
	for i, tb := range p.Tables {
		counts[i] = tb.Len()
	}

	// A LiveOnly bind needs a predicate that is cheap to resolve in full
	// — a selection or a traditional join — to start its masks from.
	prune := false
	if cfg.LiveOnly {
		for _, pred := range stmt.Where {
			prune = prune || pred.Kind != cql.CrowdJoin
		}
	}

	resolve := func(ref cql.ColRef) (tabIdx, colIdx int, err error) {
		if ref.Table == "" {
			return 0, 0, fmt.Errorf("exec: %w: column %s must be table-qualified", ErrStatement, ref.Column)
		}
		ti, ok := p.TableIdx[strings.ToLower(ref.Table)]
		if !ok {
			return 0, 0, fmt.Errorf("exec: %w: predicate references %s, which is not in FROM", ErrStatement, ref.Table)
		}
		ci := p.Tables[ti].Schema.ColIndex(ref.Column)
		if ci < 0 {
			return 0, 0, fmt.Errorf("exec: %w: table %s has no column %s", ErrStatement, ref.Table, ref.Column)
		}
		return ti, ci, nil
	}

	// colStrings renders a column, CNULL cells as "" (nulls: there is one).
	colStrings := func(ti, ci int) (out []string, nulls bool) {
		tb := p.Tables[ti]
		out = make([]string, tb.Len())
		for r := 0; r < tb.Len(); r++ {
			if v := tb.Cell(r, ci); !v.Null {
				out[r] = v.String()
			}
			nulls = nulls || out[r] == ""
		}
		return out, nulls
	}

	for _, pred := range stmt.Where {
		switch pred.Kind {
		case cql.CrowdJoin, cql.EquiJoin:
			lt, lc, err := resolve(pred.Left)
			if err != nil {
				return nil, err
			}
			rt, rc, err := resolve(pred.Right)
			if err != nil {
				return nil, err
			}
			if lt == rt {
				return nil, fmt.Errorf("exec: %w: join predicate within one table instance: %s", ErrStatement, pred)
			}
			predIdx := len(s.Preds)
			s.Preds = append(s.Preds, graph.QPred{A: lt, B: rt, Name: pred.String()})
			p.Bindings = append(p.Bindings, PredBinding{Pred: pred, LeftTab: lt, RightTab: rt, LeftCol: lc, RightCol: rc})
			c := &cands[predIdx]
			lvals, lNulls := colStrings(lt, lc)
			rvals, rNulls := colStrings(rt, rc)
			if pred.Kind == cql.CrowdJoin {
				c.lvals, c.rvals, c.nulls = lvals, rvals, lNulls || rNulls
				joinStart := time.Now()
				switch {
				case cfg.Joiner != nil:
					c.one[0] = cfg.Joiner(cfg.Sim, lvals, rvals, cfg.Epsilon)
					c.chunks = c.one[:]
				case prune:
					c.deferred = true // joined below, masked
				default:
					sim.JoinEach(cfg.Sim, lvals, rvals, cfg.Epsilon, c.pairs.Add)
					c.chunks = c.pairs.Chunks()
				}
				joinTime += time.Since(joinStart)
				c.truth = joinTruth(orc, s.Tables[lt], pred.Left.Column, s.Tables[rt], pred.Right.Column, lvals, rvals)
			} else {
				rows := map[string][]int{}
				for j, rv := range rvals {
					if rv != "" {
						rows[rv] = append(rows[rv], j)
					}
				}
				n := 0
				for _, lv := range lvals {
					n += len(rows[lv])
				}
				c.one[0] = make([]sim.Pair, 0, n)
				for i, lv := range lvals {
					for _, j := range rows[lv] {
						c.one[0] = append(c.one[0], sim.Pair{Left: i, Right: j, Sim: 1})
					}
				}
				c.chunks = c.one[:]
			}
		case cql.CrowdEqual, cql.Equal:
			lt, lc, err := resolve(pred.Left)
			if err != nil {
				return nil, err
			}
			// One pseudo-table holding just the constant (§4.2).
			constIdx := len(s.Tables)
			s.Tables = append(s.Tables, fmt.Sprintf("$const:%s", pred.Value))
			p.Tables = append(p.Tables, nil)
			counts = append(counts, 1)
			predIdx := len(s.Preds)
			s.Preds = append(s.Preds, graph.QPred{A: lt, B: constIdx, Name: pred.String()})
			p.Bindings = append(p.Bindings, PredBinding{Pred: pred, LeftTab: lt, RightTab: constIdx, LeftCol: lc, RightCol: -1})
			c := &cands[predIdx]
			vals, _ := colStrings(lt, lc)
			if pred.Kind == cql.CrowdEqual {
				// The constant is tokenised once, not once per row.
				sim.AgainstEach(cfg.Sim, pred.Value, vals, func(i int, w float64) {
					if vals[i] != "" && w >= cfg.Epsilon {
						c.one[0] = append(c.one[0], sim.Pair{Left: i, Sim: w})
					}
				})
				truth := selTruth(orc, s.Tables[lt], pred.Left.Column, vals, pred.Value)
				c.truth = func(i, _ int) bool { return truth(i) }
			} else {
				for i, v := range vals {
					if v != "" && v == pred.Value {
						c.one[0] = append(c.one[0], sim.Pair{Left: i, Sim: 1})
					}
				}
			}
			c.chunks = c.one[:]
		}
	}

	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w: %w", ErrStatement, err)
	}
	var lv *liveness
	if prune {
		lv = newLiveness(s, counts, cands)
		lv.settle()
		// Without a Joiner the CROWDJOINs run now, each masked by what is
		// still possibly live, the one with the most selective side first;
		// once a table has no such row no pair is left to find or bind.
		for !lv.empty {
			pred, fromLeft := lv.nextJoin()
			if pred < 0 {
				break
			}
			c, qp := &cands[pred], s.Preds[pred]
			joinStart := time.Now()
			c.pairs.JoinMasked(cfg.Sim, c.lvals, c.rvals, cfg.Epsilon, lv.mask(qp.A), lv.mask(qp.B), fromLeft)
			c.chunks = c.pairs.Chunks()
			joinTime += time.Since(joinStart)
			c.deferred = false // and still due its first sweep
			lv.settle()
		}
	}
	g, err := graph.NewGraph(s, counts)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	walk := func(yield func(graph.EdgeSpec)) {
		for pred := range cands {
			c := &cands[pred]
			var la, lb []bool // set: skip the pairs between two dead rows
			if lv != nil {
				la, lb = lv.live[s.Preds[pred].A], lv.live[s.Preds[pred].B]
			}
			for _, chunk := range c.chunks {
				for _, pr := range chunk {
					if c.null(pr) || (la != nil && !la[pr.Left] && !lb[pr.Right]) {
						continue
					}
					yield(graph.EdgeSpec{Pred: pred, RowA: pr.Left, RowB: pr.Right, W: pr.Sim})
				}
			}
		}
	}
	g.AddEdgesFunc(walk)
	p.Truth = make([]bool, g.NumEdges())
	id := 0
	walk(func(sp graph.EdgeSpec) {
		if truth := cands[sp.Pred].truth; truth != nil {
			p.Truth[id] = truth(sp.RowA, sp.RowB)
		} else {
			p.Truth[id] = true
			g.SetColor(id, graph.Blue)
		}
		id++
	})
	p.S = s
	p.G = g
	// The edges are in the graph: the joins' chunks go back to the pool.
	// A Joiner's slice is the Joiner's and stays as it is.
	for i := range cands {
		for _, chunk := range cands[i].chunks {
			p.Candidates += len(chunk)
		}
		cands[i].pairs.Release()
	}
	mBindCandidates.Add(int64(p.Candidates))
	mBindEdges.Add(int64(g.NumEdges()))
	mGraphBuild.Observe((time.Since(start) - joinTime).Seconds())
	return p, nil
}

// TrueAnswerKeys enumerates the ground-truth answers: embeddings whose
// every edge is truth-true, keyed by their assignment for
// precision/recall scoring.
func (p *Plan) TrueAnswerKeys() map[string]bool {
	out := map[string]bool{}
	p.G.EnumerateEmbeddings(nil, func(e graph.Edge) bool { return p.Truth[e.ID] },
		func(assign, _ []int) bool {
			out[assignKey(assign)] = true
			return true
		})
	return out
}

// answerKeys keys derived answers (all-blue embeddings) as
// TrueAnswerKeys keys the true ones.
func answerKeys(answers []graph.Embedding) map[string]bool {
	out := make(map[string]bool, len(answers))
	for _, a := range answers {
		out[assignKey(a.Assign)] = true
	}
	return out
}

func assignKey(assign []int) string {
	var arr [64]byte
	b := arr[:0]
	for i, v := range assign {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// ProjectAnswer materializes one answer embedding into the statement's
// requested columns (all columns of real tables for SELECT *).
func (p *Plan) ProjectAnswer(a graph.Embedding) ([]string, error) {
	var out []string
	if p.Stmt.Star {
		for ti, tb := range p.Tables {
			if tb == nil {
				continue
			}
			row := p.G.RowOf(a.Assign[ti])
			for ci := range tb.Schema.Columns {
				out = append(out, tb.Cell(row, ci).String())
			}
		}
		return out, nil
	}
	for _, ref := range p.Stmt.Cols {
		ti, ok := p.TableIdx[strings.ToLower(ref.Table)]
		if !ok {
			return nil, fmt.Errorf("exec: %w: projection references unknown table %s", ErrStatement, ref.Table)
		}
		tb := p.Tables[ti]
		ci := tb.Schema.ColIndex(ref.Column)
		if ci < 0 {
			return nil, fmt.Errorf("exec: %w: projection references unknown column %s", ErrStatement, ref)
		}
		out = append(out, tb.Cell(p.G.RowOf(a.Assign[ti]), ci).String())
	}
	return out, nil
}

// ProjectionColumns names the statement's projected columns (all
// columns of real tables for SELECT *), aligned with ProjectAnswer.
func (p *Plan) ProjectionColumns() []string {
	var out []string
	if p.Stmt.Star {
		for ti, tb := range p.Tables {
			if tb == nil {
				continue
			}
			for _, c := range tb.Schema.Columns {
				out = append(out, p.S.Tables[ti]+"."+c.Name)
			}
		}
		return out
	}
	for _, ref := range p.Stmt.Cols {
		out = append(out, ref.String())
	}
	return out
}

// TaskDescription renders a crowd task's human-facing content: the
// predicate label and the two cell values being compared. Used by the
// metadata store and the shell's trace mode.
func (p *Plan) TaskDescription(edgeID int) (predicate, left, right string) {
	e := p.G.Edge(edgeID)
	b := p.Bindings[e.Pred]
	predicate = p.S.Preds[e.Pred].Name
	leftTb := p.Tables[b.LeftTab]
	left = leftTb.Cell(p.G.RowOf(e.U), b.LeftCol).String()
	if b.RightCol < 0 {
		right = b.Pred.Value // selection constant
		return
	}
	rightTb := p.Tables[b.RightTab]
	right = rightTb.Cell(p.G.RowOf(e.V), b.RightCol).String()
	return
}
