package sim

import (
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenizer turns strings into sets of dense int32 token ids without
// materialising the token strings: two tokens get the same id iff
// Grams2 (Tokens, when words is set) would spell them the same. Ids
// are local to the tokenizer, handed out from 0 in order of first
// appearance; a join makes one, uses it for both sides and drops it.
type tokenizer struct {
	words bool
	// ascii resolves a gram of two printable-ASCII runes (0x20–0x7F) by
	// index, holding id+1 (0: not seen yet); grams takes every other rune
	// pair, and the ASCII ones first seen once ids no longer fit 16 bits.
	ascii  *[asciiSpan * asciiSpan]uint16
	grams  map[uint64]int32 // packed rune pair -> id
	fields map[string]int32 // lower-cased whitespace field -> id
	seen   []int32          // seen[id] == serial: id is already in the current set
	serial int32
}

// asciiSpan is the number of runes from asciiLow up that the gram table
// covers per side: 96×96 entries are 18 KB, less than the map grows to
// on one join's column pair.
const (
	asciiLow  = 0x20
	asciiSpan = 0x80 - asciiLow
)

func newTokenizer(words bool) *tokenizer {
	t := &tokenizer{words: words}
	if words {
		t.fields = make(map[string]int32)
	} else {
		t.ascii = new([asciiSpan * asciiSpan]uint16)
	}
	return t
}

// loneRune stands in for the first rune of the gram a one-rune string
// yields; it is no valid rune, so that gram never equals a rune pair.
const loneRune = rune(-1)

// appendSet appends the token-id set of s to dst: every id once, in
// order of first occurrence. len of the appended part is
// len(Grams2(s)), or len(Tokens(s)) for a words tokenizer.
func (t *tokenizer) appendSet(dst []int32, s string) []int32 {
	t.serial++
	if t.words {
		for _, f := range strings.Fields(strings.ToLower(s)) {
			id, ok := t.fields[f]
			if !ok {
				id = t.newID()
				t.fields[f] = id
			}
			dst = t.add(dst, id)
		}
		return dst
	}
	// One pass over what normalize would build: lower-cased runes,
	// whitespace runs collapsed to one ' ' and trimmed at both ends —
	// a run is only emitted once a later rune shows it is interior.
	prev, n, space := loneRune, 0, false
	for _, r := range s {
		var isSpace bool
		if r < utf8.RuneSelf {
			if 'A' <= r && r <= 'Z' {
				r += 'a' - 'A'
			}
			isSpace = r == ' ' || ('\t' <= r && r <= '\r')
		} else {
			r = unicode.ToLower(r)
			isSpace = unicode.IsSpace(r)
		}
		if isSpace {
			space = n > 0
			continue
		}
		if space {
			dst = t.gram(dst, prev, ' ')
			prev, space = ' ', false
			n++
		}
		if n > 0 {
			dst = t.gram(dst, prev, r)
		}
		prev = r
		n++
	}
	if n == 1 {
		dst = t.gram(dst, loneRune, prev)
	}
	return dst
}

func (t *tokenizer) gram(dst []int32, a, b rune) []int32 {
	if x, y := uint32(a-asciiLow), uint32(b-asciiLow); x < asciiSpan && y < asciiSpan {
		e := &t.ascii[x*asciiSpan+y]
		if *e != 0 {
			return t.add(dst, int32(*e)-1)
		}
		if len(t.seen) < math.MaxUint16 {
			id := t.newID()
			*e = uint16(id + 1)
			return t.add(dst, id)
		}
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	id, ok := t.grams[key]
	if !ok {
		if t.grams == nil {
			t.grams = make(map[uint64]int32)
		}
		id = t.newID()
		t.grams[key] = id
	}
	return t.add(dst, id)
}

func (t *tokenizer) newID() int32 {
	t.seen = append(t.seen, 0)
	return int32(len(t.seen) - 1)
}

func (t *tokenizer) add(dst []int32, id int32) []int32 {
	if t.seen[id] == t.serial {
		return dst
	}
	t.seen[id] = t.serial
	return append(dst, id)
}

// idSets is one side of a join as token-id sets in a flat array:
// record i holds ids[off[i]:off[i+1]].
type idSets struct {
	off, ids []int32
}

func (t *tokenizer) sets(recs []string) idSets {
	bytes := 0
	for _, s := range recs {
		bytes += len(s)
	}
	// A string has at most one token per byte, so ids never regrows.
	out := idSets{off: make([]int32, len(recs)+1), ids: make([]int32, 0, bytes)}
	for i, s := range recs {
		out.ids = t.appendSet(out.ids, s)
		out.off[i+1] = int32(len(out.ids))
	}
	return out
}

func (s idSets) set(i int) []int32 { return s.ids[s.off[i]:s.off[i+1]] }
func (s idSets) size(i int) int    { return int(s.off[i+1] - s.off[i]) }

// Against returns a scorer of strings against the fixed string c, for
// callers that compare one constant with a whole column:
// Against(f, c)(s) == Similarity(f, s, c), bit for bit, but for the
// Jaccard family c is normalised and tokenised once instead of once
// per call. The returned function is not safe for concurrent use.
func Against(f Func, c string) func(s string) float64 {
	if f != Gram2Jaccard && f != TokenJaccard {
		return func(s string) float64 { return Similarity(f, s, c) }
	}
	t := newTokenizer(f == TokenJaccard)
	buf := t.appendSet(nil, c)
	nc := len(buf) // c's tokens hold exactly the ids below nc
	return func(s string) float64 {
		buf = t.appendSet(buf[:0], s)
		if len(buf) == 0 || nc == 0 {
			if len(buf) == 0 && nc == 0 {
				return 1
			}
			return 0
		}
		inter := 0
		for _, id := range buf {
			if int(id) < nc {
				inter++
			}
		}
		return float64(inter) / float64(len(buf)+nc-inter)
	}
}
