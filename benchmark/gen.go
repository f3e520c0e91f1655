package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cdb/internal/cql"
	"cdb/internal/dataset"
)

// The benchmark's environment is fixed; only the traffic varies with
// -seed. The dataset and the simulated crowd are part of the system
// under a stated configuration (like the schema and scale factor of a
// database benchmark): generating them from -seed would move every
// count metric by several percent between seeds and bury a 0.5 %
// regression in dataset noise.
const (
	datasetSeed = 1
	crowdSeed   = 1
)

// quota says how many statements of each shape a draw takes. The
// reference quotas the workloads use are multiples of the number of
// values its selection constants take (8 conferences or award places, 6
// countries; 24 covers both of a pair, 48 every pair), so that a list
// covers every constant equally often whatever the seed — see
// generator.combo.
type quota map[string]int

// scaled resizes a reference quota from refSeconds to seconds, keeping
// at least one statement of every shape the reference has.
func (q quota) scaled(seconds int) quota {
	out := quota{}
	for shape, n := range q {
		out[shape] = scaleOps(n, seconds)
	}
	return out
}

// op is one generated operation: a canonical CQL statement plus the
// labels the benchmark reports it under. The program under test only
// ever sees stmt.
type op struct {
	stmt    string
	dataset string // "paper" or "award": which DB a cold workload sends it to
	shape   string
	hot     bool // drawn from the fixed hot set (serving workloads)
}

// template is one query shape of one dataset, parsed once: the
// statement skeleton, the columns a projection may draw from, and the
// candidate values of each CROWDEQUAL constant in predicate order.
type template struct {
	dataset string
	shape   string
	sel     *cql.Select
	cols    []cql.ColRef // sorted by rendered name
	selPred []int        // indices into sel.Where of CROWDEQUAL predicates
	consts  [][]string   // per selPred: candidate constants
	combos  int          // product of len(consts[i]); 1 without selections
}

// generator draws distinct statements from the templates of one or
// more datasets. Every draw is a pure function of the seed and the
// draws before it.
type generator struct {
	rng  *rand.Rand
	tpls map[string][]*template // dataset -> templates in QueryLabels order
	seen map[string]bool
	// next[dataset/shape] is how many constant combinations the shape
	// has handed out; perm holds one seeded permutation per constant.
	perm map[string][][]int
	next map[string]int
}

// newGenerator prepares the templates of data.
func newGenerator(seed int64, data ...*dataset.Data) (*generator, error) {
	g := &generator{
		rng:  rand.New(rand.NewSource(seed)),
		tpls: map[string][]*template{},
		seen: map[string]bool{},
		perm: map[string][][]int{},
		next: map[string]int{},
	}
	for _, d := range data {
		for _, shape := range dataset.QueryLabels() {
			t, err := newTemplate(d, shape)
			if err != nil {
				return nil, err
			}
			g.tpls[d.Name] = append(g.tpls[d.Name], t)
			for _, vals := range t.consts {
				key := d.Name + "/" + shape
				g.perm[key] = append(g.perm[key], g.rng.Perm(len(vals)))
			}
		}
	}
	return g, nil
}

func newTemplate(d *dataset.Data, shape string) (*template, error) {
	st, err := cql.Parse(dataset.Queries(d.Name)[shape])
	if err != nil {
		return nil, fmt.Errorf("template %s/%s: %w", d.Name, shape, err)
	}
	sel, ok := st.(*cql.Select)
	if !ok {
		return nil, fmt.Errorf("template %s/%s is not a SELECT", d.Name, shape)
	}
	t := &template{dataset: d.Name, shape: shape, sel: sel, combos: 1}
	for _, name := range sel.From {
		tb, ok := d.Catalog.Get(name)
		if !ok {
			return nil, fmt.Errorf("template %s/%s: unknown table %s", d.Name, shape, name)
		}
		for _, c := range tb.Schema.Columns {
			t.cols = append(t.cols, cql.ColRef{Table: tb.Schema.Name, Column: c.Name})
		}
	}
	sort.Slice(t.cols, func(i, j int) bool { return t.cols[i].String() < t.cols[j].String() })
	for i, p := range sel.Where {
		if p.Kind != cql.CrowdEqual {
			continue
		}
		vals := constantsFor(d, p.Left)
		if len(vals) == 0 {
			return nil, fmt.Errorf("template %s/%s: no constants for %s", d.Name, shape, p.Left)
		}
		t.selPred = append(t.selPred, i)
		t.consts = append(t.consts, vals)
		t.combos *= len(vals)
	}
	if len(t.consts) > 2 {
		return nil, fmt.Errorf("template %s/%s: %d selection constants, combo handles two", d.Name, shape, len(t.consts))
	}
	return t, nil
}

// constantsFor lists the selection constants a CROWDEQUAL on col may
// take: the paper's eight conference series, the six country entities,
// and — for Award.place — the first eight well-known city names that
// exist as entities in the generated data (a constant the oracle does
// not know can match nothing).
func constantsFor(d *dataset.Data, col cql.ColRef) []string {
	switch strings.ToLower(col.String()) {
	case "paper.conference":
		return []string{"cikm", "edbt", "icde", "kdd", "sigir", "sigmod", "vldb", "www"}
	case "university.country", "city.country":
		return []string{"Canada", "China", "Germany", "Japan", "UK", "USA"}
	case "award.place":
		tb, ok := d.Catalog.Get("Award")
		if !ok {
			return nil
		}
		seen := map[int]bool{}
		var out []string
		ci := tb.Schema.MustColIndex("place")
		for r := 0; r < tb.Len(); r++ {
			seen[d.Oracle.EntityOf("city", tb.Cell(r, ci).S)] = true
		}
		for _, name := range awardPlaces {
			if id := d.Oracle.EntityOf("city", name); id >= 0 && seen[id] && len(out) < 8 {
				out = append(out, name)
			}
		}
		return out
	}
	return nil
}

// awardPlaces are the candidate Award.place constants, a sorted subset
// of the generator's city vocabulary; only those present in the data
// are used.
var awardPlaces = []string{
	"Athens", "Atlanta", "Austin", "Berlin", "Boston", "Brussels", "Cairo", "Chengdu",
	"Cleveland", "Delhi", "Detroit", "Dublin", "Glasgow", "Havana", "Lima", "Lisbon",
	"London", "Los Angeles", "Madrid", "Miami", "Moscow", "Mumbai", "New York", "Osaka",
	"Oslo", "Ottawa", "Paris", "Prague", "Rome", "Seattle", "Seoul", "Vienna",
}

// draw returns distinct, never-before-drawn statements over
// ds: q[shape] of every shape, constants covered evenly (see combo),
// projections random. A shape that runs out of distinct statements
// hands its remaining quota to the next shape.
//
// A seeded draw walks the constants through seeded permutations and
// shuffles the list. A canonical draw walks them in listed order and
// riffles the shapes evenly, so that the seed picks the projections
// only. The cold path needs that: a DB.Exec query's crowd outcome
// depends on how far the worker pool has advanced its random stream, so
// any other order of the same statements re-rolls every worker error —
// over ten seeds that moved the mean F1 of 150 queries by ±8 % and
// their rounds by ±4 %. The engine's verdicts are pure functions of
// (seed, task), so serving lists are seeded; only the hot set, whose 32
// statements weigh 2 % of a pass each, is canonical.
func (g *generator) draw(ds string, q quota, canonical bool) ([]op, error) {
	var out []op
	var pos []float64 // where in [0,1) a canonical list places each op
	carry := 0
	for _, t := range g.tpls[ds] {
		want := q[t.shape] + carry
		carry = 0
		for k := 0; k < want; k++ {
			o, ok := g.one(t, canonical)
			if !ok {
				carry = want - k
				break
			}
			out = append(out, o)
			pos = append(pos, (float64(k)+0.5)/float64(want))
		}
	}
	if carry > 0 {
		return nil, fmt.Errorf("generator: %s statement space exhausted (%d short)", ds, carry)
	}
	if !canonical {
		g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out, nil
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pos[idx[a]] < pos[idx[b]] })
	riffled := make([]op, len(out))
	for i, j := range idx {
		riffled[i] = out[j]
	}
	return riffled, nil
}

// one draws one new statement from t, or reports that t is exhausted.
func (g *generator) one(t *template, canonical bool) (op, bool) {
	key := fmt.Sprintf("%s/%s/%t", t.dataset, t.shape, canonical)
	for try := 0; try < 8*t.combos+64; try++ {
		stmt := t.render(g.combo(t, g.next[key], canonical), g.projection(t))
		if g.seen[stmt] {
			// Retry the same combination under another projection a few
			// times before moving on, so coverage stays even.
			if try%8 == 7 {
				g.next[key]++
			}
			continue
		}
		g.next[key]++
		g.seen[stmt] = true
		return op{stmt: stmt, dataset: t.dataset, shape: t.shape}, true
	}
	return op{}, false
}

// combo maps the i-th draw of a shape to one value index per constant
// such that any len(consts[k]) consecutive draws use every value of
// constant k exactly once, and combos consecutive draws use every
// combination once. Selection constants decide a query's cost (35 % of
// papers are sigmod, half the universities are in the USA), so sampling
// them independently would make a list's total work depend on the seed.
// With two constants of sizes a and b the walk is (i mod a, (i + i div
// lcm(a,b)) mod b): the Chinese remainder theorem makes one lcm-long
// block hit distinct pairs, and each block shifts the second index by
// one to reach the pairs the blocks before it could not. A seeded walk
// sends each index through the constant's seeded permutation.
func (g *generator) combo(t *template, i int, canonical bool) []int {
	out := make([]int, len(t.consts))
	switch len(t.consts) {
	case 0:
		return out
	case 1:
		out[0] = i % len(t.consts[0])
	default:
		a, b := len(t.consts[0]), len(t.consts[1])
		out[0], out[1] = i%a, (i+i/lcm(a, b))%b
	}
	if !canonical {
		for k, perm := range g.perm[t.dataset+"/"+t.shape] {
			out[k] = perm[out[k]]
		}
	}
	return out
}

func lcm(a, b int) int {
	g, r := a, b
	for r != 0 {
		g, r = r, g%r
	}
	return a / g * b
}

// projection picks a sorted subset of 1–3 of t's columns.
func (g *generator) projection(t *template) []cql.ColRef {
	k := 1 + g.rng.Intn(3)
	idx := g.rng.Perm(len(t.cols))[:k]
	sort.Ints(idx)
	cols := make([]cql.ColRef, k)
	for i, j := range idx {
		cols[i] = t.cols[j]
	}
	return cols
}

// render instantiates the template with one value index per constant
// and the given projection, in the canonical form cql.Select.String
// produces — the engine's answer-cache key.
func (t *template) render(combo []int, cols []cql.ColRef) string {
	s := *t.sel
	s.Cols = cols
	s.Where = append([]cql.Predicate(nil), t.sel.Where...)
	for i, pi := range t.selPred {
		s.Where[pi].Value = t.consts[i][combo[i]]
	}
	return s.String()
}

// interleave merges per-dataset lists into one, alternating datasets
// so neighbouring ops stress different topologies (paper is a chain,
// award a star).
func interleave(lists ...[]op) []op {
	var out []op
	for i := 0; ; i++ {
		added := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// mix builds a serving list: every hot statement repeats times over
// plus every novel statement once, in a seeded interleaving. Equal
// repeats, not sampling: the hot statements differ thirty-fold in crowd
// cost, and a multinomial draw would move tasks_per_query by percents
// between seeds.
func (g *generator) mix(hot []op, repeats int, novel []op) []op {
	out := make([]op, 0, len(hot)*repeats+len(novel))
	for _, o := range hot {
		o.hot = true
		for i := 0; i < repeats; i++ {
			out = append(out, o)
		}
	}
	out = append(out, novel...)
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
