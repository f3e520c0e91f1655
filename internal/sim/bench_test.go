package sim

import (
	"fmt"
	"strings"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/dataset"
	"cdb/internal/stats"
)

// BenchmarkJoin measures the similarity join at two scales.
func BenchmarkJoin(b *testing.B) {
	for _, n := range []int{300, 1500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := stats.NewRNG(11)
			left := randomStrings(r, n)
			right := randomStrings(r, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Join(Gram2Jaccard, left, right, 0.5)
			}
		})
	}
}

// BenchmarkJoinColumns measures the joins the cold workloads run: every
// CROWDJOIN of the 3J statement over the generated paper and award
// tables, at the benchmark's two scales and the default ε. Names and
// titles over a few hundred distinct 2-grams spend a far larger share of
// the join tokenising than BenchmarkJoin's random strings do.
func BenchmarkJoinColumns(b *testing.B) {
	for _, name := range []string{"paper", "award"} {
		st := benchStatement(b, name, "3J")
		for _, scale := range []float64{0.12, 0.3} {
			d := benchData(b, name, scale)
			for _, pred := range st.Where {
				left, right := benchColumn(b, d, pred.Left), benchColumn(b, d, pred.Right)
				b.Run(fmt.Sprintf("%s@%.2f/%s", name, scale, strings.ToLower(pred.Left.String())), func(b *testing.B) {
					b.ReportAllocs()
					pairs := 0
					for i := 0; i < b.N; i++ {
						pairs = len(Join(Gram2Jaccard, left, right, 0.3))
					}
					b.ReportMetric(float64(pairs), "pairs")
				})
			}
		}
	}
}

// BenchmarkJoinColumnsMasked measures the masked joins a LiveOnly bind
// runs, on the 3J2S statement's CROWDJOIN columns: a side whose table
// carries a CROWDEQUAL keeps the rows that reach ε against its constant
// (no mask on a table without one), the join is driven from a masked
// side, and its chunks go back after each join as the bind hands them
// back. The bind's own masks also follow the other joins, so they keep
// fewer rows than these.
func BenchmarkJoinColumnsMasked(b *testing.B) {
	for _, name := range []string{"paper", "award"} {
		st := benchStatement(b, name, "3J2S")
		for _, scale := range []float64{0.12, 0.3} {
			d := benchData(b, name, scale)
			keep := map[string][]bool{} // table -> rows passing its selection
			for _, pred := range st.Where {
				if pred.Kind != cql.CrowdEqual {
					continue
				}
				col := benchColumn(b, d, pred.Left)
				mask := make([]bool, len(col))
				AgainstEach(Gram2Jaccard, pred.Value, col, func(i int, s float64) { mask[i] = s >= 0.3 })
				keep[strings.ToLower(pred.Left.Table)] = mask
			}
			for _, pred := range st.Where {
				if pred.Kind != cql.CrowdJoin {
					continue
				}
				left, right := benchColumn(b, d, pred.Left), benchColumn(b, d, pred.Right)
				keepL, keepR := keep[strings.ToLower(pred.Left.Table)], keep[strings.ToLower(pred.Right.Table)]
				if keepL == nil && keepR == nil {
					continue // nothing to mask: BenchmarkJoinColumns' join
				}
				fromLeft := keepL != nil
				b.Run(fmt.Sprintf("%s@%.2f/%s", name, scale, strings.ToLower(pred.Left.String())), func(b *testing.B) {
					b.ReportAllocs()
					pairs := 0
					for i := 0; i < b.N; i++ {
						var ps Pairs
						ps.JoinMasked(Gram2Jaccard, left, right, 0.3, keepL, keepR, fromLeft)
						pairs = 0
						for _, c := range ps.Chunks() {
							pairs += len(c)
						}
						ps.Release()
					}
					b.ReportMetric(float64(pairs), "pairs")
				})
			}
		}
	}
}

func benchStatement(b *testing.B, name, query string) *cql.Select {
	st, err := cql.Parse(dataset.Queries(name)[query])
	if err != nil {
		b.Fatal(err)
	}
	return st.(*cql.Select)
}

func benchData(b *testing.B, name string, scale float64) *dataset.Data {
	d, err := dataset.ByName(name, dataset.Config{Seed: 1, Scale: scale})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchColumn renders a column of the generated data.
func benchColumn(b *testing.B, d *dataset.Data, ref cql.ColRef) []string {
	tb, ok := d.Catalog.Get(ref.Table)
	if !ok {
		b.Fatalf("no table %s", ref.Table)
	}
	ci := tb.Schema.ColIndex(ref.Column)
	out := make([]string, tb.Len())
	for r := range out {
		out[r] = tb.Cell(r, ci).String()
	}
	return out
}
