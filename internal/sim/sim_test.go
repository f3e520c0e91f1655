package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGrams2(t *testing.T) {
	got := Grams2("abc")
	want := []string{"ab", "bc"}
	if len(got) != len(want) {
		t.Fatalf("grams = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grams = %v, want %v", got, want)
		}
	}
	if g := Grams2(""); g != nil {
		t.Fatalf("empty grams = %v", g)
	}
	if g := Grams2("x"); len(g) != 1 || g[0] != "x" {
		t.Fatalf("single-rune grams = %v", g)
	}
	// Dedup: "aaa" has only one distinct 2-gram.
	if g := Grams2("aaa"); len(g) != 1 || g[0] != "aa" {
		t.Fatalf("aaa grams = %v", g)
	}
}

func TestGrams2Normalizes(t *testing.T) {
	a := Grams2("  Hello   World ")
	b := Grams2("hello world")
	if len(a) != len(b) {
		t.Fatalf("normalization mismatch: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("normalization mismatch: %v vs %v", a, b)
		}
	}
}

func TestJaccard2GramIdentity(t *testing.T) {
	if !almostEq(Jaccard2Gram("sigmod", "SIGMOD"), 1) {
		t.Fatal("case-insensitive identity should be 1")
	}
	if !almostEq(Jaccard2Gram("", ""), 1) {
		t.Fatal("both empty should be 1")
	}
	if !almostEq(Jaccard2Gram("abc", ""), 0) {
		t.Fatal("one empty should be 0")
	}
}

func TestJaccard2GramKnown(t *testing.T) {
	// grams("abcd") = {ab,bc,cd}; grams("bcde") = {bc,cd,de};
	// intersection {bc,cd}=2, union 4 => 0.5
	if got := Jaccard2Gram("abcd", "bcde"); !almostEq(got, 0.5) {
		t.Fatalf("jaccard = %v, want 0.5", got)
	}
}

func TestJaccardTokens(t *testing.T) {
	if got := JaccardTokens("univ of california", "univ of chicago"); !almostEq(got, 0.5) {
		t.Fatalf("token jaccard = %v, want 0.5", got)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "ab", 2},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("lev(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	err := quick.Check(func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	strs := []string{"sigmod", "sigir", "vldb", "icde", "sigmod16", ""}
	for _, a := range strs {
		for _, b := range strs {
			for _, c := range strs {
				if Levenshtein(a, c) > Levenshtein(a, b)+Levenshtein(b, c) {
					t.Fatalf("triangle inequality violated on (%q,%q,%q)", a, b, c)
				}
			}
		}
	}
}

func TestNormalizedEditSim(t *testing.T) {
	if !almostEq(NormalizedEditSim("abc", "abc"), 1) {
		t.Fatal("identical should be 1")
	}
	if !almostEq(NormalizedEditSim("", ""), 1) {
		t.Fatal("empty/empty should be 1")
	}
	if !almostEq(NormalizedEditSim("abcd", "wxyz"), 0) {
		t.Fatal("completely different equal-length should be 0")
	}
}

func TestCosineSim(t *testing.T) {
	if !almostEq(CosineSim("abc", "abc"), 1) {
		t.Fatal("identity cosine should be 1")
	}
	if !almostEq(CosineSim("ab", "xy"), 0) {
		t.Fatal("disjoint grams cosine should be 0")
	}
	v := CosineSim("abcd", "bcde")
	if v <= 0 || v >= 1 {
		t.Fatalf("partial-overlap cosine = %v", v)
	}
}

func TestSimilarityRange(t *testing.T) {
	funcs := []Func{Gram2Jaccard, TokenJaccard, EditDistance, Cosine, NoSim}
	err := quick.Check(func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		for _, f := range funcs {
			s := Similarity(f, a, b)
			if s < -1e-9 || s > 1+1e-9 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimilaritySymmetry(t *testing.T) {
	funcs := []Func{Gram2Jaccard, TokenJaccard, EditDistance, Cosine}
	pairs := [][2]string{
		{"University of California", "Univ. of California"},
		{"MIT", "Massachusetts Institute of Technology"},
		{"sigmod", "sigir"},
	}
	for _, f := range funcs {
		for _, p := range pairs {
			if !almostEq(Similarity(f, p[0], p[1]), Similarity(f, p[1], p[0])) {
				t.Fatalf("%v not symmetric on %q/%q", f, p[0], p[1])
			}
		}
	}
}

func TestNoSim(t *testing.T) {
	if Similarity(NoSim, "anything", "else") != 0.5 {
		t.Fatal("NoSim should always return 0.5")
	}
}

func TestFuncString(t *testing.T) {
	for f, want := range map[Func]string{
		Gram2Jaccard: "2gram-jaccard",
		TokenJaccard: "token-jaccard",
		EditDistance: "edit-distance",
		Cosine:       "cosine",
		NoSim:        "nosim",
		Func(99):     "unknown",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(f), f.String(), want)
		}
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]Func{
		"2gram": Gram2Jaccard, "token": TokenJaccard, "edit": EditDistance, "cosine": Cosine, "none": NoSim,
	} {
		if f, err := ByName(name); err != nil || f != want {
			t.Errorf("ByName(%s) = %v, %v, want %v", name, f, err, want)
		}
	}
	_, err := ByName("3gram")
	if err == nil || err.Error() != `unknown similarity "3gram" (want 2gram, token, edit, cosine, none)` {
		t.Errorf("ByName(3gram) error = %v", err)
	}
}

// --- join tests ---

func joinKeys(ps []Pair) map[string]float64 {
	m := map[string]float64{}
	for _, p := range ps {
		m[fmt.Sprintf("%d-%d", p.Left, p.Right)] = p.Sim
	}
	return m
}

var joinLeft = []string{
	"University of California",
	"University of Chicago",
	"Duke Uni.",
	"Microsoft Cambridge",
	"Department of Nutrition",
}

var joinRight = []string{
	"Univ. of California",
	"Univ. of Chicago",
	"Duke Univ.",
	"Microsoft",
	"Univ. of Cambridge",
	"Depart of Nutrition",
}

func TestPrefixFilterMatchesBruteForce(t *testing.T) {
	for _, f := range []Func{Gram2Jaccard, TokenJaccard, EditDistance, Cosine} {
		for _, eps := range []float64{0.3, 0.5, 0.7} {
			fast := joinKeys(Join(f, joinLeft, joinRight, eps))
			slow := joinKeys(BruteForceJoin(f, joinLeft, joinRight, eps))
			if len(fast) != len(slow) {
				t.Fatalf("%v eps=%v: fast %d pairs, slow %d pairs\nfast=%v\nslow=%v",
					f, eps, len(fast), len(slow), fast, slow)
			}
			for k, v := range slow {
				if fv, ok := fast[k]; !ok || !almostEq(fv, v) {
					t.Fatalf("%v eps=%v: pair %s missing or wrong (%v vs %v)", f, eps, k, fv, v)
				}
			}
		}
	}
}

func TestJoinNoSimIsCartesian(t *testing.T) {
	ps := Join(NoSim, joinLeft, joinRight, 0.3)
	if len(ps) != len(joinLeft)*len(joinRight) {
		t.Fatalf("NoSim join size = %d, want %d", len(ps), len(joinLeft)*len(joinRight))
	}
	for _, p := range ps {
		if p.Sim != 0.5 {
			t.Fatal("NoSim pair weight should be 0.5")
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	if ps := Join(Gram2Jaccard, nil, joinRight, 0.3); len(ps) != 0 {
		t.Fatalf("empty left join = %v", ps)
	}
	if ps := Join(Gram2Jaccard, joinLeft, nil, 0.3); len(ps) != 0 {
		t.Fatalf("empty right join = %v", ps)
	}
}

func TestJoinThresholdRespected(t *testing.T) {
	for _, eps := range []float64{0.3, 0.6, 0.9} {
		for _, p := range Join(Gram2Jaccard, joinLeft, joinRight, eps) {
			if p.Sim < eps {
				t.Fatalf("pair below threshold: %+v at eps=%v", p, eps)
			}
		}
	}
}

func TestJoinZeroEpsKeepsAll(t *testing.T) {
	ps := Join(Gram2Jaccard, []string{"aa", "bb"}, []string{"aa", "cc"}, 0)
	if len(ps) != 4 {
		t.Fatalf("eps=0 should keep every pair, got %d", len(ps))
	}
}

func TestPrefixFilterRandomized(t *testing.T) {
	// Randomized cross-check on generated dirty strings.
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var left, right []string
	for i := 0; i < 40; i++ {
		a := words[i%len(words)] + " " + words[(i*3+1)%len(words)]
		left = append(left, a)
		b := words[(i*5+2)%len(words)] + " " + words[i%len(words)]
		right = append(right, b)
	}
	for _, eps := range []float64{0.2, 0.4, 0.6, 0.8} {
		fast := joinKeys(Join(Gram2Jaccard, left, right, eps))
		slow := joinKeys(BruteForceJoin(Gram2Jaccard, left, right, eps))
		if len(fast) != len(slow) {
			t.Fatalf("eps=%v: %d vs %d pairs", eps, len(fast), len(slow))
		}
	}
}
