// Package sim implements the string-similarity substrate CDB uses to
// estimate edge matching probabilities (§4.1): 2-gram Jaccard (the
// paper's default), token Jaccard, normalized edit distance, and
// cosine over 2-gram multisets, plus the similarity join that
// instantiates a CROWDJOIN's candidate edges (similarity >= epsilon)
// without scoring every tuple pair string against string: records go
// straight to dense token ids and the tokens two records share are
// counted through an inverted index (see Join and index).
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Func identifies a similarity function. The ablation in Figs. 23–24
// compares these (NoSim fixes every probability at 0.5).
type Func int

const (
	// Gram2Jaccard is Jaccard over 2-gram sets: the paper's CDB default.
	Gram2Jaccard Func = iota
	// TokenJaccard is Jaccard over whitespace tokens (the paper's JAC).
	TokenJaccard
	// EditDistance is 1 - normalizedLevenshtein (the paper's ED).
	EditDistance
	// Cosine is cosine similarity over 2-gram frequency vectors.
	Cosine
	// NoSim returns 0.5 for every pair (the paper's no-estimation ablation).
	NoSim
)

// names are the estimator names ByName accepts, indexed by Func.
var names = [...]string{Gram2Jaccard: "2gram", TokenJaccard: "token", EditDistance: "edit", Cosine: "cosine", NoSim: "none"}

// ByName resolves a similarity-estimator name; an unknown name's error
// lists the valid ones.
func ByName(name string) (Func, error) {
	for f, n := range names {
		if n == name {
			return Func(f), nil
		}
	}
	return Gram2Jaccard, fmt.Errorf("unknown similarity %q (want %s)", name, strings.Join(names[:], ", "))
}

// String implements fmt.Stringer.
func (f Func) String() string {
	switch f {
	case Gram2Jaccard:
		return "2gram-jaccard"
	case TokenJaccard:
		return "token-jaccard"
	case EditDistance:
		return "edit-distance"
	case Cosine:
		return "cosine"
	case NoSim:
		return "nosim"
	default:
		return "unknown"
	}
}

// normalize lower-cases and collapses whitespace so similarity is
// robust to trivial formatting noise, matching how the paper treats
// e.g. "Univ. of California" vs "University of California".
func normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// Grams2 returns the sorted, deduplicated 2-gram set of s (after
// normalization). Strings shorter than 2 runes yield the whole string
// as a single gram so they still participate in matching.
func Grams2(s string) []string {
	s = normalize(s)
	runes := []rune(s)
	if len(runes) == 0 {
		return nil
	}
	if len(runes) == 1 {
		return []string{string(runes)}
	}
	set := make(map[string]struct{}, len(runes))
	for i := 0; i+2 <= len(runes); i++ {
		set[string(runes[i:i+2])] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Tokens returns the sorted, deduplicated token set of s.
func Tokens(s string) []string {
	fields := strings.Fields(strings.ToLower(s))
	set := make(map[string]struct{}, len(fields))
	for _, f := range fields {
		set[f] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// jaccardSorted computes |a∩b| / |a∪b| for two sorted string sets.
func jaccardSorted(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Jaccard2Gram computes 2-gram Jaccard similarity of two strings.
func Jaccard2Gram(a, b string) float64 { return jaccardSorted(Grams2(a), Grams2(b)) }

// JaccardTokens computes token Jaccard similarity of two strings.
func JaccardTokens(a, b string) float64 { return jaccardSorted(Tokens(a), Tokens(b)) }

// Levenshtein returns the edit distance between a and b (runes).
func Levenshtein(a, b string) int {
	ra, rb := []rune(normalize(a)), []rune(normalize(b))
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// NormalizedEditSim returns 1 - lev(a,b)/max(len(a),len(b)).
func NormalizedEditSim(a, b string) float64 {
	na, nb := len([]rune(normalize(a))), len([]rune(normalize(b)))
	maxLen := na
	if nb > maxLen {
		maxLen = nb
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// CosineSim computes cosine similarity over 2-gram frequency vectors.
func CosineSim(a, b string) float64 {
	va := gramCounts(a)
	vb := gramCounts(b)
	if len(va) == 0 && len(vb) == 0 {
		return 1
	}
	if len(va) == 0 || len(vb) == 0 {
		return 0
	}
	var dot, na, nb float64
	for g, ca := range va {
		na += float64(ca) * float64(ca)
		if cb, ok := vb[g]; ok {
			dot += float64(ca) * float64(cb)
		}
	}
	for _, cb := range vb {
		nb += float64(cb) * float64(cb)
	}
	return dot / (sqrt(na) * sqrt(nb))
}

func gramCounts(s string) map[string]int {
	s = normalize(s)
	runes := []rune(s)
	m := map[string]int{}
	if len(runes) == 1 {
		m[string(runes)] = 1
		return m
	}
	for i := 0; i+2 <= len(runes); i++ {
		m[string(runes[i:i+2])]++
	}
	return m
}

func sqrt(x float64) float64 {
	// Newton iterations; avoids importing math for one call and is
	// exact enough for similarity scores.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Similarity evaluates the chosen function on a pair of strings.
func Similarity(f Func, a, b string) float64 {
	switch f {
	case Gram2Jaccard:
		return Jaccard2Gram(a, b)
	case TokenJaccard:
		return JaccardTokens(a, b)
	case EditDistance:
		return NormalizedEditSim(a, b)
	case Cosine:
		return CosineSim(a, b)
	case NoSim:
		return 0.5
	default:
		return 0
	}
}
