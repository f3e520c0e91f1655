package exec

import (
	"cdb/internal/baselines"
	"cdb/internal/cql"
	"cdb/internal/sim"
)

// ERSideOracle adapts the plan into the side-dedup supplier the ER
// baselines (Trans/ACD) need: for a crowd-join predicate, the
// within-column value pairs on each side whose similarity reaches
// epsSide. Real entity-resolution systems crowdsource these pairs to
// power transitivity — a cost CDB's graph model never pays. Exact
// duplicates are skipped (deduplicated for free), and pairs are
// restricted to currently-alive vertices. Ground-truth outcomes come
// from the plan's oracle; answer noise on side pairs is not modelled
// (a strictly ER-favourable simplification, recorded in DESIGN.md).
func (p *Plan) ERSideOracle(epsSide float64) baselines.SideOracle {
	return func(pred int, alive []bool) []baselines.SidePair {
		if pred < 0 || pred >= len(p.Bindings) {
			return nil
		}
		b := p.Bindings[pred]
		if b.Pred.Kind != cql.CrowdJoin {
			return nil
		}
		var out []baselines.SidePair
		for _, side := range [2]struct{ tab, col int }{
			{b.LeftTab, b.LeftCol}, {b.RightTab, b.RightCol},
		} {
			tb := p.Tables[side.tab]
			if tb == nil {
				continue
			}
			var rows []int
			var vals []string
			for r := 0; r < tb.Len(); r++ {
				v := p.G.VertexID(side.tab, r)
				if alive != nil && !alive[v] {
					continue
				}
				cell := tb.Cell(r, side.col)
				if cell.Null {
					continue
				}
				rows = append(rows, r)
				vals = append(vals, cell.String())
			}
			name := p.S.Tables[side.tab]
			colName := tb.Schema.Columns[side.col].Name
			for _, pr := range sim.Join(p.Cfg.Sim, vals, vals, epsSide) {
				if pr.Left >= pr.Right || vals[pr.Left] == vals[pr.Right] {
					continue
				}
				out = append(out, baselines.SidePair{
					U:     p.G.VertexID(side.tab, rows[pr.Left]),
					V:     p.G.VertexID(side.tab, rows[pr.Right]),
					Match: p.Orc.JoinMatch(name, colName, name, colName, vals[pr.Left], vals[pr.Right]),
				})
			}
		}
		return out
	}
}
