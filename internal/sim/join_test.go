package sim

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cdb/internal/stats"
)

// randomStrings generates n strings over a small alphabet so that both
// near-duplicates and disjoint records occur.
func randomStrings(r *stats.RNG, n int) []string {
	words := []string{"univ", "of", "california", "chicago", "duke",
		"dept", "nutrition", "cambridge", "microsoft", "lab", "inst"}
	out := make([]string, n)
	for i := range out {
		k := 1 + r.Intn(4)
		s := ""
		for w := 0; w < k; w++ {
			if w > 0 {
				s += " "
			}
			s += words[r.Intn(len(words))]
		}
		out[i] = s
	}
	return out
}

// TestJoinParallelMatchesBruteForce cross-checks the join against the
// quadratic reference on random inputs. (The name predates the removal
// of the sharded probe; Join is sequential.)
func TestJoinParallelMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(7)
	for trial := 0; trial < 10; trial++ {
		left := randomStrings(r, 40)
		right := randomStrings(r, 30)
		eps := 0.3 + 0.4*r.Float64()
		fast := joinKeys(Join(Gram2Jaccard, left, right, eps))
		slow := joinKeys(BruteForceJoin(Gram2Jaccard, left, right, eps))
		if len(fast) != len(slow) {
			t.Fatalf("trial %d eps=%v: fast %d pairs, slow %d", trial, eps, len(fast), len(slow))
		}
		for k, v := range slow {
			if fv, ok := fast[k]; !ok || !almostEq(fv, v) {
				t.Fatalf("trial %d eps=%v: pair %s missing or wrong (%v vs %v)", trial, eps, k, fv, v)
			}
		}
	}
}

// orderedGrams is the reference the id tokenizer is checked against:
// the 2-grams of s spelled out as strings, each once, in order of
// first occurrence — Grams2 before its sort.
func orderedGrams(s string) []string {
	runes := []rune(normalize(s))
	if len(runes) == 1 {
		return []string{string(runes)}
	}
	var out []string
	seen := map[string]bool{}
	for i := 0; i+2 <= len(runes); i++ {
		if g := string(runes[i : i+2]); !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// FuzzGramIDs: the id set of a string has exactly len(Grams2(s))
// members, and across two strings put through one tokenizer two grams
// share an id iff they are the same string. The scorer built on the
// same ids returns Similarity's bits for both Jaccard functions.
//
// The seeds past the first line sit on the edges of the printable-ASCII
// gram table: the runes just outside it (0x1F, 0x80) and just inside
// (0x20, 0x7F), non-ASCII runes beside ASCII ones, and runes that only
// become ASCII once lower-cased (İ, the Kelvin sign). Every input also
// runs through tokenizers that have already handed out nearly, or all of,
// the ids the table's 16 bits can hold, so the table's grams are looked
// up beside, and after, grams that had to go to the map.
func FuzzGramIDs(f *testing.F) {
	for _, s := range []string{"", " \t\n ", "a", "  a  ", "ab", "a\tb\n\nc  d", "University OF  california",
		"İstanbul", "Straße STRASSE", "数据库 查询", "a\u00a0b\u0085c", "\xff", "a\xffb\xc3", "\xf0\x9f", "aaaa", "abab ab",
		"a\x1fb\x1f\x1f", "a\x7fb\x7f\x7f~", "\x7f", "\x1f", "~\u0080a\u0080", "aéa éa", "数a据a", "İi Iİ", "\u212ak K\u212a"} {
		f.Add(s, "Univ. of California")
		f.Add("ab", s)
		f.Add(s, s)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, used := range []int{0, math.MaxUint16 - 3, math.MaxUint16} {
			fuzzGramIDs(t, a, b, used)
		}
	})
}

// fuzzGramIDs is FuzzGramIDs' check on a tokenizer whose first used ids
// are taken.
func fuzzGramIDs(t *testing.T, a, b string, used int) {
	tok := newTokenizer(false)
	tok.seen = make([]int32, used)
	strs := [2]string{a, b}
	var ids [2][]int32
	var grams [2][]string
	for k, s := range strs {
		ids[k] = tok.appendSet(nil, s)
		grams[k] = orderedGrams(s)
		sorted := append([]string(nil), grams[k]...)
		sort.Strings(sorted)
		if want := Grams2(s); strings.Join(sorted, "\x00") != strings.Join(want, "\x00") {
			t.Fatalf("reference grams of %q = %q, Grams2 = %q", s, sorted, want)
		}
		if len(ids[k]) != len(grams[k]) {
			t.Fatalf("%q: %d ids %v for %d grams %q", s, len(ids[k]), ids[k], len(grams[k]), grams[k])
		}
	}
	for k := range strs {
		for x, gx := range grams[k] {
			for y, gy := range grams[1] {
				if (gx == gy) != (ids[k][x] == ids[1][y]) {
					t.Fatalf("%q/%q: grams %q, %q got ids %d, %d", strs[k], b, gx, gy, ids[k][x], ids[1][y])
				}
			}
		}
	}
	if again := tok.appendSet(nil, a); !slices.Equal(again, ids[0]) {
		t.Fatalf("%q: ids changed on a second pass: %v then %v", a, ids[0], again)
	}
	if used > 0 {
		return
	}
	for _, fn := range []Func{Gram2Jaccard, TokenJaccard, EditDistance} {
		got, want := Against(fn, a)(b), Similarity(fn, b, a)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Against(%v, %q)(%q) = %v, Similarity = %v", fn, a, b, got, want)
		}
	}
	if got, want := len(newTokenizer(true).appendSet(nil, a)), len(Tokens(a)); got != want {
		t.Fatalf("%q: %d word ids for %d tokens", a, got, want)
	}
}

// FuzzJoinMatchesBruteForce splits each argument on '|' into one side's
// records. For the Jaccard family Join must return BruteForceJoin's
// pairs bit for bit, and for the two verify-after-filter functions a
// subset of them with the same bits; always in strictly ascending
// (Left, Right) order.
func FuzzJoinMatchesBruteForce(f *testing.F) {
	f.Add("University of California|University of Chicago|Duke Uni.", "Univ. of California|Duke Univ.|Microsoft")
	f.Add("a|a||b| |ab", "|a|b|b|ba ab|\t")
	f.Add("aa bb|bb aa|AA  BB", "aa bb|cc")
	f.Add("", "")
	f.Add("|", "||")
	f.Add("数据库|İi|\xff\xfe", "数据|ii|\xff")
	f.Fuzz(func(t *testing.T, l, r string) {
		if len(l)+len(r) > 400 {
			t.Skip("long inputs only slow the quadratic reference down")
		}
		left, right := strings.Split(l, "|"), strings.Split(r, "|")
		for _, fn := range []Func{Gram2Jaccard, TokenJaccard, EditDistance, Cosine} {
			for _, eps := range []float64{0.05, 0.3, 0.6, 1.0} {
				got := Join(fn, left, right, eps)
				for k := 1; k < len(got); k++ {
					p, q := got[k-1], got[k]
					if p.Left > q.Left || (p.Left == q.Left && p.Right >= q.Right) {
						t.Fatalf("%v eps=%v: pairs %d, %d out of order: %+v, %+v", fn, eps, k-1, k, p, q)
					}
				}
				want := map[[2]int]float64{}
				for _, p := range BruteForceJoin(fn, left, right, eps) {
					want[[2]int{p.Left, p.Right}] = p.Sim
				}
				for _, p := range got {
					s, ok := want[[2]int{p.Left, p.Right}]
					if !ok || math.Float64bits(s) != math.Float64bits(p.Sim) {
						t.Fatalf("%v eps=%v: Join has %+v, brute force has %v (present %v)", fn, eps, p, s, ok)
					}
				}
				if (fn == Gram2Jaccard || fn == TokenJaccard) && len(got) != len(want) {
					t.Fatalf("%v eps=%v: Join found %d of brute force's %d pairs", fn, eps, len(got), len(want))
				}
			}
		}
		// Row masks drawn from the input: both driving sides, every function.
		bits := stats.HashString(l + "|" + r)
		checkJoinMasked(t, left, right, bits, bits>>32)
	})
}

// FuzzJoinMasked hands JoinMasked row masks of the fuzzer's choosing:
// bit i%64 of lbits (rbits) keeps left (right) row i.
func FuzzJoinMasked(f *testing.F) {
	f.Add("University of California|University of Chicago|Duke Uni.", "Univ. of California|Duke Univ.|Microsoft", uint64(1), uint64(6))
	f.Add("a|a||b| |ab", "|a|b|b|ba ab|\t", uint64(0b101010), uint64(0b010101))
	f.Add("aa bb|bb aa|AA  BB|cc", "aa bb|cc|bb", uint64(0), uint64(1))
	f.Add("ab|bc|cd|de", "ab|bc|cd|de", uint64(3), ^uint64(0))
	f.Add("", "", uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, l, r string, lbits, rbits uint64) {
		if len(l)+len(r) > 400 {
			t.Skip("long inputs only slow the quadratic reference down")
		}
		checkJoinMasked(t, strings.Split(l, "|"), strings.Split(r, "|"), lbits, rbits)
	})
}

// checkJoinMasked: for all five functions, from either side, with and
// without a mask on each side, JoinMasked returns the reference join's
// pairs that pass its rule — nothing else, in ascending order, Sim bit
// for bit. The reference is BruteForceJoin where Join equals it (the
// Jaccard family) and Join itself for the rest (verify-after-filter
// finds a subset; NoSim ignores eps).
func checkJoinMasked(t *testing.T, left, right []string, lbits, rbits uint64) {
	t.Helper()
	mask := func(n int, bits uint64) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = bits>>(i%64)&1 == 1
		}
		return m
	}
	for _, fn := range []Func{Gram2Jaccard, TokenJaccard, EditDistance, Cosine, NoSim} {
		for _, eps := range []float64{0, 0.3, 0.6} {
			ref := Join(fn, left, right, eps)
			if fn == Gram2Jaccard || fn == TokenJaccard {
				ref = BruteForceJoin(fn, left, right, eps)
			}
			for _, keepL := range [][]bool{nil, mask(len(left), lbits)} {
				for _, keepR := range [][]bool{nil, mask(len(right), rbits)} {
					for _, fromLeft := range []bool{true, false} {
						want := maskedRule(ref, keepL, keepR, fromLeft)
						var got []Pair
						for _, c := range JoinMasked(fn, left, right, eps, keepL, keepR, fromLeft) {
							got = append(got, c...)
						}
						if len(got) != len(want) {
							t.Fatalf("%v eps=%v fromLeft=%v keep %v / %v: %d pairs, want %d\n got %+v\nwant %+v", fn, eps, fromLeft, keepL, keepR, len(got), len(want), got, want)
						}
						for k := range want {
							if got[k].Left != want[k].Left || got[k].Right != want[k].Right || math.Float64bits(got[k].Sim) != math.Float64bits(want[k].Sim) {
								t.Fatalf("%v eps=%v fromLeft=%v keep %v / %v: pair %d is %+v, want %+v", fn, eps, fromLeft, keepL, keepR, k, got[k], want[k])
							}
						}
					}
				}
			}
		}
	}
}

// TestJoinSkipsEmptyTokenSets: a record without tokens ("" or all
// whitespace) joins nothing, in Join and in the brute-force reference
// alike, although Similarity scores two empty token sets as 1.
// exec.BuildPlan drops "" cells either way.
func TestJoinSkipsEmptyTokenSets(t *testing.T) {
	left, right := []string{"", "ab", "  "}, []string{"\t", "ab", ""}
	only := []Pair{{Left: 1, Right: 1, Sim: 1}}
	for _, fn := range []Func{Gram2Jaccard, TokenJaccard, EditDistance, Cosine} {
		if Similarity(fn, "", " ") != 1 {
			t.Errorf("%v: Similarity of two empty records changed", fn)
		}
		for _, eps := range []float64{0.3, 0} {
			if got := Join(fn, left, right, eps); !reflect.DeepEqual(got, only) {
				t.Errorf("%v eps=%v: Join = %+v, want only the (1, 1) pair", fn, eps, got)
			}
			if got := BruteForceJoin(fn, left, right, eps); !reflect.DeepEqual(got, only) {
				t.Errorf("%v eps=%v: BruteForceJoin = %+v, want only the (1, 1) pair", fn, eps, got)
			}
		}
	}
	if n := len(BruteForceJoin(NoSim, left, right, 0.3)); n != len(Join(NoSim, left, right, 0.3)) || n != 9 {
		t.Errorf("NoSim: brute force keeps %d pairs, want all 9 like Join", n)
	}
}

// TestJoinAllocsPerRecord: a join allocates its flat arrays, the
// vocabulary map and the output, not strings per gram or maps per
// record (the string-set path it replaced made over 40 allocations per
// record on these inputs).
func TestJoinAllocsPerRecord(t *testing.T) {
	r := stats.NewRNG(5)
	left, right := randomStrings(r, 400), randomStrings(r, 400)
	records := float64(len(left) + len(right))
	if got := testing.AllocsPerRun(5, func() { Join(Gram2Jaccard, left, right, 0.3) }); got > records/8 {
		t.Errorf("2-gram join of %v records: %v allocations", records, got)
	}
	// strings.Fields costs one slice per record.
	if got := testing.AllocsPerRun(5, func() { Join(TokenJaccard, left, right, 0.3) }); got > 2*records {
		t.Errorf("token join of %v records: %v allocations", records, got)
	}
}

// TestJoinMetrics: one join is one observation of the duration
// histogram and one add to each counter; touched is the number of
// pairs sharing at least one gram.
func TestJoinMetrics(t *testing.T) {
	joins, touched, pairs, timed := mJoins.Value(), mJoinTouched.Value(), mJoinPairs.Value(), mJoinSeconds.Count()
	got := Join(Gram2Jaccard, joinLeft, joinRight, 0.3)
	sharing := len(BruteForceJoin(Gram2Jaccard, joinLeft, joinRight, math.SmallestNonzeroFloat64))
	if sharing <= len(got) || sharing >= len(joinLeft)*len(joinRight) {
		t.Fatalf("want inputs where touched separates from both pairs and |L||R|: %d pairs, %d sharing", len(got), sharing)
	}
	if d := mJoins.Value() - joins; d != 1 {
		t.Errorf("joins moved by %d", d)
	}
	if d := mJoinSeconds.Count() - timed; d != 1 {
		t.Errorf("duration histogram took %d observations", d)
	}
	if d := mJoinTouched.Value() - touched; d != int64(sharing) {
		t.Errorf("touched moved by %d, want %d", d, sharing)
	}
	if d := mJoinPairs.Value() - pairs; d != int64(len(got)) {
		t.Errorf("pairs moved by %d, want %d", d, len(got))
	}
}

// maskedRule filters a join's pairs by JoinMasked's rule, spelled out.
func maskedRule(ref []Pair, keepL, keepR []bool, fromLeft bool) []Pair {
	kept := func(m []bool, i int) bool { return m == nil || m[i] }
	reached := map[int]bool{} // R' (L' when driving from the right)
	for _, p := range ref {
		if kept(keepL, p.Left) && kept(keepR, p.Right) {
			if fromLeft {
				reached[p.Right] = true
			} else {
				reached[p.Left] = true
			}
		}
	}
	var want []Pair
	for _, p := range ref {
		if (fromLeft && (kept(keepL, p.Left) || reached[p.Right])) ||
			(!fromLeft && (kept(keepR, p.Right) || reached[p.Left])) {
			want = append(want, p)
		}
	}
	return want
}

// TestJoinMaskedMergesChunks: on columns whose join fills several
// chunks per probe, the two probes' outputs interleave into Join's
// order as runs of the chunks they filled — 24 B of header per run, not
// per pair — and when the second probe finds nothing the first one's
// chunks come back as they are; one tokenisation either way (the
// allocations of one Join plus the probe's scratch, not of two).
func TestJoinMaskedMergesChunks(t *testing.T) {
	r := stats.NewRNG(9)
	left, right := randomStrings(r, 300), randomStrings(r, 300)
	ref := Join(Gram2Jaccard, left, right, 0.3)
	if len(ref) < 4*pairChunk {
		t.Fatalf("%d pairs: want several chunks", len(ref))
	}
	keepL, keepR := make([]bool, len(left)), make([]bool, len(right))
	for i := range keepL {
		keepL[i] = r.Bool(0.3)
	}
	for j := range keepR {
		keepR[j] = r.Bool(0.3)
	}
	for _, fromLeft := range []bool{true, false} {
		var got []Pair
		chunks := JoinMasked(Gram2Jaccard, left, right, 0.3, keepL, keepR, fromLeft)
		for _, c := range chunks {
			got = append(got, c...)
		}
		want := maskedRule(ref, keepL, keepR, fromLeft)
		if len(want) <= pairChunk || len(want) >= len(ref) {
			t.Fatalf("fromLeft=%v: rule keeps %d of %d pairs; want a proper, multi-chunk subset", fromLeft, len(want), len(ref))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fromLeft=%v: %d pairs, want %d (or out of order)", fromLeft, len(got), len(want))
		}
		// From the left the probes' outputs interleave by row; from the
		// right within rows, by runs of kept right rows.
		if per := map[bool]int{true: 8, false: 2}[fromLeft]; per*len(chunks) > len(got) {
			t.Errorf("fromLeft=%v: %d runs for %d pairs, want at least %d pairs a run", fromLeft, len(chunks), len(got), per)
		}
	}
	// No kept right row: nobody is reached, so the first probe is the result.
	none := make([]bool, len(right))
	chunks := JoinMasked(Gram2Jaccard, left, right, 0.3, keepL, none, true)
	if len(chunks) < 2 || len(chunks[0]) != pairChunk {
		t.Fatalf("empty second probe: %d chunks, first of %d pairs; want the first probe's chunks as stored", len(chunks), len(chunks[0]))
	}
	plain := testing.AllocsPerRun(5, func() { Join(Gram2Jaccard, left, right, 0.3) })
	masked := testing.AllocsPerRun(5, func() { JoinMasked(Gram2Jaccard, left, right, 0.3, keepL, keepR, true) })
	if masked > plain+8 {
		t.Errorf("masked join: %v allocations, unmasked %v: the second probe must reuse the first one's arrays", masked, plain)
	}
}
