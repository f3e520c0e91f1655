package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Intn(7) value %d appeared %d times out of 70000 (expected ~10000)", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm(0.8, 0.1)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-0.8) > 0.005 {
		t.Fatalf("mean = %v, want ~0.8", mean)
	}
	if math.Abs(std-0.1) > 0.005 {
		t.Fatalf("stddev = %v, want ~0.1", std)
	}
}

func TestNormClamped(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 10000; i++ {
		v := r.NormClamped(0.5, 10, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("NormClamped escaped bounds: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPick(t *testing.T) {
	r := NewRNG(19)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(r, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never returned some element: %v", seen)
	}
}

func TestF1(t *testing.T) {
	cases := []struct {
		p, r, want float64
	}{
		{1, 1, 1},
		{0, 0, 0},
		{1, 0, 0},
		{0.5, 0.5, 0.5},
		{0.8, 0.4, 2 * 0.8 * 0.4 / 1.2},
	}
	for _, c := range cases {
		if got := F1(c.p, c.r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F1(%v,%v) = %v, want %v", c.p, c.r, got, c.want)
		}
	}
}

func TestPrecisionRecall(t *testing.T) {
	truth := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	returned := map[string]bool{"a": true, "b": true, "x": true}
	p, r := PrecisionRecall(returned, truth)
	if math.Abs(p-2.0/3.0) > 1e-12 {
		t.Fatalf("precision = %v, want 2/3", p)
	}
	if math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("recall = %v, want 0.5", r)
	}
}

func TestPrecisionRecallEmpty(t *testing.T) {
	p, r := PrecisionRecall(map[int]bool{}, map[int]bool{})
	if p != 1 || r != 1 {
		t.Fatalf("empty/empty should be perfect, got %v/%v", p, r)
	}
	p, r = PrecisionRecall(map[int]bool{}, map[int]bool{1: true})
	if p != 0 || r != 0 {
		t.Fatalf("empty returned with nonempty truth should be 0/0, got %v/%v", p, r)
	}
	p, r = PrecisionRecall(map[int]bool{1: true}, map[int]bool{})
	if p != 0 || r != 1 {
		t.Fatalf("nonempty returned with empty truth: got %v/%v, want 0/1", p, r)
	}
}

func TestAgg(t *testing.T) {
	var a Agg
	a.Add(Metrics{Tasks: 10, Rounds: 3, Precision: 1, Recall: 0.5})
	a.Add(Metrics{Tasks: 20, Rounds: 5, Precision: 0.5, Recall: 1})
	tasks, rounds, p, r, f1 := a.Mean()
	if tasks != 15 || rounds != 4 {
		t.Fatalf("tasks/rounds mean = %v/%v", tasks, rounds)
	}
	if math.Abs(p-0.75) > 1e-12 || math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("p/r mean = %v/%v", p, r)
	}
	wantF1 := (F1(1, 0.5) + F1(0.5, 1)) / 2
	if math.Abs(f1-wantF1) > 1e-12 {
		t.Fatalf("f1 mean = %v, want %v", f1, wantF1)
	}
	if a.n != 2 {
		t.Fatalf("n = %d", a.n)
	}
}

func TestAggWelford(t *testing.T) {
	// Tasks 2,4,4,4,5,5,7,9: mean 5, population variance 4, sample
	// variance 32/7. Welford must match the two-pass result exactly.
	var a Agg
	for _, v := range []int{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(Metrics{Tasks: v})
	}
	tasks, _, _, _, _ := a.Mean()
	if tasks != 5 {
		t.Fatalf("mean = %v, want 5", tasks)
	}
	sd, _, _, _, _ := a.Stddev()
	if want := math.Sqrt(32.0 / 7.0); math.Abs(sd-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", sd, want)
	}
	mn, _, _, _, _ := a.Min()
	mx, _, _, _, _ := a.Max()
	if mn != 2 || mx != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", mn, mx)
	}
	ci, _, _, _, _ := a.CI95()
	if want := 1.96 * sd / math.Sqrt(8); math.Abs(ci-want) > 1e-12 {
		t.Fatalf("ci95 = %v, want %v", ci, want)
	}
}

func TestAggStddevDegenerate(t *testing.T) {
	var a Agg
	sd, _, _, _, _ := a.Stddev()
	if sd != 0 {
		t.Fatalf("empty stddev = %v", sd)
	}
	a.Add(Metrics{Tasks: 3})
	sd, _, _, _, _ = a.Stddev()
	ci, _, _, _, _ := a.CI95()
	if sd != 0 || ci != 0 {
		t.Fatalf("single-sample stddev/ci = %v/%v, want 0/0", sd, ci)
	}
}

func TestAggEmpty(t *testing.T) {
	var a Agg
	tasks, rounds, p, r, f1 := a.Mean()
	if tasks != 0 || rounds != 0 || p != 0 || r != 0 || f1 != 0 {
		t.Fatal("empty Agg should report zeros")
	}
}

// Summary describes a distribution of float64 observations.
type Summary struct {
	N            int
	Mean, Stddev float64
	Min, Max     float64
	P50, P95     float64
}

// Summarize computes a Summary of xs. An empty input yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    quantile(sorted, 0.50),
		P95:    quantile(sorted, 0.95),
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary: %+v", z)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 0}); h != 0 {
		t.Fatalf("deterministic distribution entropy = %v, want 0", h)
	}
	h := Entropy([]float64{0.5, 0.5})
	if math.Abs(h-math.Ln2) > 1e-12 {
		t.Fatalf("uniform binary entropy = %v, want ln 2", h)
	}
	// Uniform maximizes entropy among 3-outcome distributions.
	if Entropy([]float64{0.8, 0.1, 0.1}) >= Entropy([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}) {
		t.Fatal("skewed distribution should have lower entropy than uniform")
	}
}
