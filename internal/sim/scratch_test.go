package sim

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"cdb/internal/stats"
)

// newTokenizer is a tokenizer of the test's own, outside the pool.
func newTokenizer(words bool) *tokenizer {
	t := new(tokenizer)
	t.reset(words)
	return t
}

// Against is AgainstEach on one string: Against(f, c)(s) scores s
// against c.
func Against(f Func, c string) func(s string) float64 {
	return func(s string) float64 {
		var out float64
		AgainstEach(f, c, []string{s}, func(_ int, w float64) { out = w })
		return out
	}
}

// JoinMasked is Pairs.JoinMasked into a fresh Pairs, whose chunks the
// caller drops.
func JoinMasked(f Func, left, right []string, eps float64, keepLeft, keepRight []bool, fromLeft bool) [][]Pair {
	var ps Pairs
	ps.JoinMasked(f, left, right, eps, keepLeft, keepRight, fromLeft)
	return ps.Chunks()
}

// samePairs reports, as an error, the first difference between got and
// want: a pair missing, extra, or with other Sim bits.
func samePairs(label string, got, want []Pair) error {
	for k := 0; k < len(got) || k < len(want); k++ {
		if k == len(got) || k == len(want) {
			return fmt.Errorf("%s: %d pairs, want %d", label, len(got), len(want))
		}
		g, w := got[k], want[k]
		if g.Left != w.Left || g.Right != w.Right || math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			return fmt.Errorf("%s: pair %d is %+v, want %+v", label, k, g, w)
		}
	}
	return nil
}

// scratchCase is one use of the scratch pool and its reference result,
// computed without the pool.
type scratchCase struct {
	label string
	run   func() []Pair
	want  []Pair
}

// scratchCases builds, in the order they are run, one of every use the
// scratch pool serves: 2-gram joins on ASCII and on non-ASCII records, a
// 2-gram join whose tokenizer hands out more ids than the ASCII table's
// 16 bits hold, a word join between two 2-gram joins, the two
// verify-after-filter functions, masked joins from both sides and
// constant scoring. Each reference is BruteForceJoin (filtered by the
// masked rule or the 2-gram pre-threshold where the join applies one) or
// Similarity per row.
func scratchCases(t *testing.T) []scratchCase {
	r := stats.NewRNG(17)
	asciiL, asciiR := randomStrings(r, 40), randomStrings(r, 30)
	// 一丁丂七丄丅 shares runes with the wide columns below.
	uni := []string{"数据库", "查询", "İstanbul", "Straße", "STRASSE", "naïve", "café", "Ωmega", "Kelvin", "数据", "一丁丂七丄丅"}
	pick := func(words []string, n int) []string {
		out := make([]string, n)
		for i := range out {
			var b strings.Builder
			for w := 0; w <= r.Intn(3); w++ {
				if w > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(words[r.Intn(len(words))])
			}
			out[i] = b.String()
		}
		return out
	}
	uniL, uniR := pick(uni, 30), pick(append(uni, "univ", "of", "lab"), 25)

	// wideL's 2-grams over 512 non-ASCII runes run past the table's 65 535
	// ids; its last records then bring in ASCII 2-grams, which go to the
	// map.
	wideL := make([]string, 2600)
	for i := range wideL {
		rs := make([]rune, 40)
		for k := range rs {
			rs[k] = 0x4E00 + rune(r.Intn(512))
		}
		wideL[i] = string(rs)
		if i >= len(wideL)-50 {
			wideL[i] += " " + asciiL[i%len(asciiL)]
		}
	}
	wideR := []string{wideL[3], wideL[len(wideL)-1], asciiR[0], asciiL[5], wideL[1000][:30] + "ab"}
	tok := newTokenizer(false)
	tok.sets(idSets{}, wideR)
	tok.sets(idSets{}, wideL)
	if len(tok.seen) <= math.MaxUint16 {
		t.Fatalf("wide columns hold %d distinct 2-grams: want more than the table's %d ids", len(tok.seen), math.MaxUint16)
	}

	keepL, keepR := make([]bool, len(asciiL)), make([]bool, len(asciiR))
	for i := range keepL {
		keepL[i] = r.Bool(0.3)
	}
	for j := range keepR {
		keepR[j] = r.Bool(0.3)
	}

	join := func(f Func, left, right []string, eps float64) scratchCase {
		want := BruteForceJoin(f, left, right, eps)
		if f == EditDistance || f == Cosine {
			// Join verifies the pairs reaching its 2-gram pre-threshold.
			pre := new(scratch)
			x, _ := pre.index(f, nil, nil, eps)
			var kept []Pair
			for _, p := range want {
				if Jaccard2Gram(left[p.Left], right[p.Right]) >= x.pre {
					kept = append(kept, p)
				}
			}
			want = kept
		}
		return scratchCase{
			label: fmt.Sprintf("Join(%v, %d×%d, %v)", f, len(left), len(right), eps),
			run:   func() []Pair { return Join(f, left, right, eps) },
			want:  want,
		}
	}
	masked := func(f Func, fromLeft bool) scratchCase {
		return scratchCase{
			label: fmt.Sprintf("JoinMasked(%v, fromLeft=%v)", f, fromLeft),
			run: func() []Pair {
				var ps Pairs
				ps.JoinMasked(f, asciiL, asciiR, 0.3, keepL, keepR, fromLeft)
				defer ps.Release()
				return ps.Slice()
			},
			want: maskedRule(BruteForceJoin(f, asciiL, asciiR, 0.3), keepL, keepR, fromLeft),
		}
	}
	against := func(f Func, c string, col []string) scratchCase {
		want := make([]Pair, len(col))
		for i, s := range col {
			want[i] = Pair{Left: i, Sim: Similarity(f, s, c)}
		}
		return scratchCase{
			label: fmt.Sprintf("AgainstEach(%v, %q)", f, c),
			run: func() []Pair {
				got := make([]Pair, 0, len(col))
				AgainstEach(f, c, col, func(i int, s float64) { got = append(got, Pair{Left: i, Sim: s}) })
				return got
			},
			want: want,
		}
	}
	return []scratchCase{
		join(Gram2Jaccard, asciiL, asciiR, 0.3),
		join(TokenJaccard, asciiL, asciiR, 0.3),
		join(Gram2Jaccard, asciiR, asciiL, 0.3),
		join(Gram2Jaccard, uniL, uniR, 0.3),
		join(TokenJaccard, uniL, uniR, 0.3),
		join(Gram2Jaccard, wideL, wideR, 0.3),
		join(Gram2Jaccard, asciiL, asciiR, 0.5),
		join(EditDistance, asciiL, asciiR, 0.5),
		join(Cosine, uniL, uniR, 0.3),
		masked(Gram2Jaccard, true),
		masked(TokenJaccard, false),
		masked(Gram2Jaccard, false),
		against(Gram2Jaccard, "university of california", asciiL),
		against(TokenJaccard, "Duke LAB", asciiR),
		against(Gram2Jaccard, "数据库 lab", uniR),
		join(Gram2Jaccard, uniR, asciiL, 0.3),
	}
}

// TestScratchCarriesNothingOver: on one goroutine, where the pool hands
// every use the scratch the use before it returned, each use finds what
// a fresh scratch would — whatever ran before it, in both orders.
// A reset that left a 2-gram join's table entries behind through a word
// join sends the next 2-gram join's ids past its id range.
func TestScratchCarriesNothingOver(t *testing.T) {
	cases := scratchCases(t)
	for pass := 0; pass < 2; pass++ {
		for k := range cases {
			c := cases[k]
			if pass == 1 {
				c = cases[len(cases)-1-k]
			}
			if err := samePairs(c.label, c.run(), c.want); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
	}
}

// TestScratchConcurrent runs TestScratchCarriesNothingOver's uses from
// eight goroutines at once, each in its own order, so that scratches
// and chunks move between goroutines through the pools.
func TestScratchConcurrent(t *testing.T) {
	cases := scratchCases(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := len(cases)
			for k := range cases {
				i := (k + 2*g) % n
				if g%2 == 1 {
					i = n - 1 - i
				}
				c := cases[i]
				if err := samePairs(c.label, c.run(), c.want); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
