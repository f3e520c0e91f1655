package graph

import (
	"fmt"
	"slices"
	"testing"

	"cdb/internal/stats"
)

// FuzzAddEdgesSplit: a spec list added over any split into AddEdge and
// AddEdges calls builds the graph one AddEdges call builds — the same
// edges under the same ids, the same EdgesAt and AllEdgesAt order and
// the same CSR arrays — and, once both are coloured alike, the same
// validity and cut losses. The bytes pick a tree-shaped structure and a
// spec list over its predicates in random order (repeated pairs
// included), then the split: each byte is one call, AddEdge when its low
// bit is set, otherwise AddEdges of the next byte/2 % 8 specs (an empty
// call included). The last specs go in one AddEdges; the next bytes
// colour edges as (colour, edge) pairs.
func FuzzAddEdgesSplit(f *testing.F) {
	f.Add([]byte{0, 3, 7, 20, 1, 4, 6, 0, 3, 9, 1, 2, 2, 5})
	f.Add([]byte{1, 2, 9, 35, 8, 1, 1, 14, 3, 2, 0, 0, 1, 2, 12})
	f.Add([]byte{2, 5, 1, 60, 0, 15, 1, 1, 1, 6, 2, 2, 7, 0, 3})
	f.Add([]byte{3, 0, 4, 90, 12, 2, 3, 5, 7, 1, 4, 0, 9, 2, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		r := stats.NewRNG(uint64(data[2]) + 1)
		s := shapedStructure(shapes[data[0]%4], 3+int(data[1]%4), r)
		counts := make([]int, len(s.Tables))
		for i := range counts {
			counts[i] = 1 + r.Intn(4)
		}
		specs := make([]EdgeSpec, 1+int(data[3])%96)
		for i := range specs {
			p := r.Intn(len(s.Preds))
			specs[i] = EdgeSpec{Pred: p, RowA: r.Intn(counts[s.Preds[p].A]), RowB: r.Intn(counts[s.Preds[p].B]), W: r.Float64()}
		}
		want := MustNewGraph(s, counts)
		if first := want.AddEdges(specs); first != 0 {
			t.Fatalf("AddEdges on an empty graph returned first id %d", first)
		}

		got := MustNewGraph(s, counts)
		ops := data[4:]
		rest := specs
		for len(ops) > 0 && len(rest) > 0 {
			op := ops[0]
			ops = ops[1:]
			var first int
			n := 1
			if op&1 == 1 {
				first = got.AddEdge(rest[0].Pred, rest[0].RowA, rest[0].RowB, rest[0].W)
			} else {
				n = min(int(op/2)%8, len(rest))
				first = got.AddEdges(rest[:n])
			}
			if want := len(specs) - len(rest); first != want {
				t.Fatalf("call %x returned first id %d, want %d", op, first, want)
			}
			rest = rest[n:]
		}
		got.AddEdges(rest)

		for i := 0; i+1 < len(ops) && i < 32; i += 2 {
			e, c := int(ops[i+1])%len(specs), Color(ops[i]%3)
			got.SetColor(e, c)
			want.SetColor(e, c)
		}
		sameSplitGraph(t, got, want)
	})
}

// sameSplitGraph requires two graphs over one structure and one spec
// list to agree on every edge, adjacency list, CSR array, validity flag
// and cut loss.
func sameSplitGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%d edges, want %d", got.NumEdges(), want.NumEdges())
	}
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) {
		t.Fatalf("CSR off %v adj %v, want off %v adj %v", got.off, got.adj, want.off, want.adj)
	}
	for id := 0; id < want.NumEdges(); id++ {
		if got.Edge(id) != want.Edge(id) {
			t.Fatalf("edge %d = %+v, want %+v", id, got.Edge(id), want.Edge(id))
		}
		if got.IsValid(id) != want.IsValid(id) {
			t.Fatalf("edge %d validity %v, want %v", id, got.IsValid(id), want.IsValid(id))
		}
	}
	for v := 0; v < want.NumVertices(); v++ {
		if g, w := got.AllEdgesAt(v), want.AllEdgesAt(v); !slices.Equal(g, w) {
			t.Fatalf("AllEdgesAt(%d) = %v, want %v", v, g, w)
		}
		for _, pred := range want.TablePreds(want.TableOf(v)) {
			ctx := fmt.Sprintf("bundle (%d, %d)", v, pred)
			if g, w := got.EdgesAt(v, pred), want.EdgesAt(v, pred); !slices.Equal(g, w) {
				t.Fatalf("%s: EdgesAt = %v, want %v", ctx, g, w)
			}
			gl, gb := got.CutLoss(v, pred)
			wl, wb := want.CutLoss(v, pred)
			if gl != wl || gb != wb {
				t.Fatalf("%s: CutLoss = (%d, %d), want (%d, %d)", ctx, gl, gb, wl, wb)
			}
		}
	}
}
