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
	column := func(d *dataset.Data, ref cql.ColRef) []string {
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
	for _, name := range []string{"paper", "award"} {
		st, err := cql.Parse(dataset.Queries(name)["3J"])
		if err != nil {
			b.Fatal(err)
		}
		for _, scale := range []float64{0.12, 0.3} {
			d, err := dataset.ByName(name, dataset.Config{Seed: 1, Scale: scale})
			if err != nil {
				b.Fatal(err)
			}
			for _, pred := range st.(*cql.Select).Where {
				left, right := column(d, pred.Left), column(d, pred.Right)
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
