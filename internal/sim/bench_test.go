package sim

import (
	"fmt"
	"testing"

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
