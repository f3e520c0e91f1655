package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/dataset"
	"cdb/internal/graph"
	"cdb/internal/sim"
	"cdb/internal/stats"
	"cdb/internal/table"
)

// perPair hides an oracle's ColumnEntities, so BuildPlan falls back to
// JoinMatch / SelMatch per candidate.
type perPair struct{ Oracle }

// TestColumnEntitiesMatchesJoinMatch: resolving a predicate's columns
// to entity ids once labels every candidate exactly as JoinMatch /
// SelMatch on the pair's strings — on every Table 4 query of both
// datasets, and on the columns where the answer is "no" for a reason
// other than the ids: unbound, bound to different domains, holding an
// unregistered value, compared with an unknown constant.
func TestColumnEntitiesMatchesJoinMatch(t *testing.T) {
	for _, d := range []*dataset.Data{
		dataset.GenPaper(dataset.Config{Seed: 1, Scale: 0.12}),
		dataset.GenAward(dataset.Config{Seed: 1, Scale: 0.12}),
	} {
		if _, ok := Oracle(d.Oracle).(ColumnOracle); !ok {
			t.Fatal("dataset.Oracle no longer implements ColumnOracle")
		}
		for _, label := range dataset.QueryLabels() {
			stmt := mustSelect(t, dataset.Queries(d.Name)[label])
			fast, err := BuildPlan(stmt, d.Catalog, d.Oracle, DefaultPlanConfig())
			if err != nil {
				t.Fatal(err)
			}
			slow, err := BuildPlan(stmt, d.Catalog, perPair{d.Oracle}, DefaultPlanConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(fast.Truth) != fast.G.NumEdges() || len(slow.Truth) != len(fast.Truth) {
				t.Fatalf("%s %s: %d / %d truths for %d edges", d.Name, label, len(fast.Truth), len(slow.Truth), fast.G.NumEdges())
			}
			matches := 0
			for id, want := range slow.Truth {
				if fast.Truth[id] != want {
					pred, l, r := fast.TaskDescription(id)
					t.Fatalf("%s %s: %s (%q, %q): by entity id %v, by JoinMatch/SelMatch %v", d.Name, label, pred, l, r, fast.Truth[id], want)
				}
				if want {
					matches++
				}
			}
			if matches == 0 || matches == len(slow.Truth) {
				t.Fatalf("%s %s: %d of %d edges true; the case should have both", d.Name, label, matches, len(slow.Truth))
			}
		}
	}

	orc := dataset.NewOracle()
	orc.BindColumn("T", "person", "person")
	orc.BindColumn("U", "person", "person")
	orc.BindColumn("U", "city", "city")
	orc.Register("person", "ann", 0)
	orc.Register("person", "Ann.", 0)
	orc.Register("person", "bob", 1)
	orc.Register("city", "ann", 0) // same string and id, other domain
	vals := []string{"ann", "Ann.", "bob", "carl", ""}
	for _, c := range []struct{ lt, lc, rt, rc string }{
		{"T", "person", "U", "person"}, // same domain
		{"t", "PERSON", "U", "person"}, // column names fold case
		{"T", "person", "U", "city"},   // different domains
		{"T", "person", "U", "ghost"},  // right side unbound
		{"T", "ghost", "U", "ghost"},   // both unbound
	} {
		truth := joinTruth(orc, c.lt, c.lc, c.rt, c.rc, vals, vals)
		for i, l := range vals {
			for j, r := range vals {
				if got, want := truth(i, j), orc.JoinMatch(c.lt, c.lc, c.rt, c.rc, l, r); got != want {
					t.Errorf("%s.%s ~ %s.%s (%q, %q): by entity id %v, JoinMatch %v", c.lt, c.lc, c.rt, c.rc, l, r, got, want)
				}
			}
		}
	}
	for _, col := range []string{"person", "ghost"} {
		for _, constant := range []string{"ann", "Ann.", "carl", ""} {
			truth := selTruth(orc, "T", col, vals, constant)
			for i, v := range vals {
				if got, want := truth(i), orc.SelMatch("T", col, v, constant); got != want {
					t.Errorf("T.%s = %q on %q: by entity id %v, SelMatch %v", col, constant, v, got, want)
				}
			}
		}
	}
}

// TestEquiJoinMatchesNestedLoop: BuildPlan's hash equi-join emits the
// nested loop's edges — same pairs, same (left, right) ascending order,
// all Blue and true, "" cells never joining — on a 2 000 × 2 000 join
// where the nested loop is four million string compares.
func TestEquiJoinMatchesNestedLoop(t *testing.T) {
	r := stats.NewRNG(8)
	cat := table.NewCatalog()
	cols := map[string][]string{}
	for _, name := range []string{"L", "R"} {
		tb := table.New(table.Schema{Name: name, Columns: []table.Column{{Name: "k", Kind: table.String}}})
		for i := 0; i < 2000; i++ {
			v := table.SV(fmt.Sprintf("key%03d", r.Intn(700)))
			switch r.Intn(20) {
			case 0:
				v = table.SV("")
			case 1:
				v = table.CNull(table.String)
			}
			tb.MustAppend(table.Tuple{v})
			cols[name] = append(cols[name], v.S)
		}
		cat.Register(tb)
	}
	p, err := BuildPlan(mustSelect(t, `SELECT * FROM L, R WHERE L.k = R.k;`), cat, ExactOracle{}, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	for i, lv := range cols["L"] {
		for j, rv := range cols["R"] {
			if lv == "" || lv != rv {
				continue
			}
			if id >= p.G.NumEdges() {
				t.Fatalf("plan has %d edges, the nested loop finds more", p.G.NumEdges())
			}
			want := graph.Edge{ID: id, Pred: 0, U: p.G.VertexID(0, i), V: p.G.VertexID(1, j), W: 1, Color: graph.Blue}
			if got := p.G.Edge(id); got != want || !p.Truth[id] {
				t.Fatalf("edge %d = %+v (truth %v), want %+v", id, got, p.Truth[id], want)
			}
			id++
		}
	}
	if id != p.G.NumEdges() || id < 2000 {
		t.Fatalf("plan has %d edges, the nested loop finds %d", p.G.NumEdges(), id)
	}
}

// replayJoins runs stmt's similarity joins once and returns a Joiner
// that hands the recorded results back in call order, so what is left
// of BuildPlan — binding, truth, graph build — can be measured alone.
func replayJoins(tb testing.TB, stmt *cql.Select, d *dataset.Data) PlanConfig {
	tb.Helper()
	var recorded [][]sim.Pair
	cfg := DefaultPlanConfig()
	cfg.Joiner = func(f sim.Func, l, r []string, eps float64) []sim.Pair {
		recorded = append(recorded, sim.Join(f, l, r, eps))
		return recorded[len(recorded)-1]
	}
	if _, err := BuildPlan(stmt, d.Catalog, d.Oracle, cfg); err != nil {
		tb.Fatal(err)
	}
	next := 0
	cfg.Joiner = func(sim.Func, []string, []string, float64) []sim.Pair {
		next++
		return recorded[(next-1)%len(recorded)]
	}
	return cfg
}

func paper3J(tb testing.TB, scale float64) (*cql.Select, *dataset.Data) {
	tb.Helper()
	st, err := cql.Parse(dataset.Queries("paper")["3J"])
	if err != nil {
		tb.Fatal(err)
	}
	return st.(*cql.Select), dataset.GenPaper(dataset.Config{Seed: 1, Scale: scale})
}

// TestBuildPlanAllocs: outside sim.Join, building a plan allocates per
// table, per column and per predicate — never per row or per edge.
// (Before the bulk build every edge grew two adjacency lists: 7 581
// allocations for this plan, about 170 now, at any scale.)
func TestBuildPlanAllocs(t *testing.T) {
	stmt, d := paper3J(t, 0.12)
	cfg := replayJoins(t, stmt, d)
	p, err := BuildPlan(stmt, d.Catalog, d.Oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.G.NumEdges() < 2000 {
		t.Fatalf("%d edges: too few to tell per-edge from per-predicate", p.G.NumEdges())
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := BuildPlan(stmt, d.Catalog, d.Oracle, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(40 * (len(p.S.Tables) + len(p.S.Preds))); allocs > limit {
		t.Fatalf("BuildPlan: %.0f allocations for %d tables, %d predicates, %d edges (limit %.0f)",
			allocs, len(p.S.Tables), len(p.S.Preds), p.G.NumEdges(), limit)
	}
}

// TestBuildPlanBytes: with the joins replayed, a plan costs what its
// graph holds — a 24 B edge record, two 4 B adjacency entries and a
// truth bit per edge, 33 B (paper 3J measures 37.2 B per edge in all) —
// plus per-row terms: the six rendered columns and their entity ids, and
// per vertex its table and per bundle an adjacency offset. The candidate
// list is not copied on its way in: staged as specs it made 115 B per
// edge; a 48 B Edge with [][]int lists made 72. A LiveOnly bind pays per
// edge it binds, not per candidate it walks, and three bytes per vertex
// for its masks and their scratch.
func TestBuildPlanBytes(t *testing.T) {
	stmt3J, paper := paper3J(t, 0.3)
	// 861 of this statement's 4 861 candidates touch a possibly-live tuple.
	live3J2S := strings.NewReplacer(`"USA"`, `"Canada"`, `"Los Angeles"`, `"London"`).Replace(dataset.Queries("award")["3J2S"])
	for _, c := range []struct {
		label    string
		stmt     *cql.Select
		d        *dataset.Data
		liveOnly bool
		perRow   int // bytes per vertex; grows with the columns the statement renders (six, eight)
	}{
		{"paper 3J", stmt3J, paper, false, 128},
		{"award 3J2S live", mustSelect(t, live3J2S), dataset.GenAward(dataset.Config{Seed: 1, Scale: 0.12}), true, 192},
	} {
		d := c.d
		cfg := replayJoins(t, c.stmt, d)
		cfg.LiveOnly = c.liveOnly
		p, err := BuildPlan(c.stmt, d.Catalog, d.Oracle, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := BuildPlan(c.stmt, d.Catalog, d.Oracle, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		edges, verts := p.G.NumEdges(), p.G.NumVertices()
		if c.liveOnly && 3*edges > p.Candidates {
			t.Fatalf("%s: %d of %d candidates bound: the case prunes too little to tell per-edge from per-candidate", c.label, edges, p.Candidates)
		}
		if limit := uint64(40*edges + c.perRow*verts); got > limit {
			t.Fatalf("%s: BuildPlan: %d B for %d edges of %d candidates, %d vertices (%.1f B/edge; limit %d B)",
				c.label, got, edges, p.Candidates, verts, float64(got)/float64(edges), limit)
		}
	}
}

// TestBindSteadyStateBytes: once the similarity join's pools are warm,
// a LiveOnly bind that runs its own joins allocates what the same bind
// with the joins' pairs handed in does, plus the chunk lists, merged
// runs and closures of the joins — 5.4 KB on paper 3J2S at 0.12
// (152 472 B against 147 040 B; 505 800 B before the join scratch was
// pooled). None of the scratch fits in the 8 KB slack: not the 18 KB
// gram table, not a 12 KB pair chunk, not a column's id set, not a
// join's index arrays. Each side is the least of five binds, so a collection that
// empties the pools during one bind does not count.
func TestBindSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop what is put back")
	}
	stmt := mustSelect(t, dataset.Queries("paper")["3J2S"])
	d := dataset.GenPaper(dataset.Config{Seed: 1, Scale: 0.12})
	bytes := func(cfg PlanConfig) uint64 {
		cfg.LiveOnly = true
		least := uint64(math.MaxUint64)
		for i := 0; i < 6; i++ { // the first bind warms the pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := BuildPlan(stmt, d.Catalog, d.Oracle, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 {
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
		}
		return least
	}
	const slack = 8 << 10
	own, replayed := bytes(DefaultPlanConfig()), bytes(replayJoins(t, stmt, d))
	if own > replayed+slack {
		t.Fatalf("LiveOnly bind: %d B running its joins, %d B with them replayed: %d B of join scratch (limit %d B)",
			own, replayed, own-replayed, slack)
	}
}

// TestBindConcurrent: binds that run their own joins from eight
// goroutines at once — full and LiveOnly, every Table 4 statement of
// both datasets — build the graphs one goroutine builds alone, edge for
// edge and truth bit for truth bit, while the join scratch and the pair
// chunks move between them through the pools.
func TestBindConcurrent(t *testing.T) {
	type bind struct {
		label string
		stmt  *cql.Select
		d     *dataset.Data
		cfg   PlanConfig
		want  []graph.Edge
		truth []bool
	}
	var binds []bind
	for _, name := range []string{"paper", "award"} {
		d, err := dataset.ByName(name, dataset.Config{Seed: 1, Scale: 0.12})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"2J", "2J1S", "3J", "3J1S", "3J2S"} {
			for _, liveOnly := range []bool{false, true} {
				b := bind{label: fmt.Sprintf("%s %s liveOnly=%v", name, q, liveOnly),
					stmt: mustSelect(t, dataset.Queries(name)[q]), d: d, cfg: DefaultPlanConfig()}
				b.cfg.LiveOnly = liveOnly
				p, err := BuildPlan(b.stmt, d.Catalog, d.Oracle, b.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < p.G.NumEdges(); e++ {
					b.want = append(b.want, p.G.Edge(e))
				}
				b.truth = p.Truth
				binds = append(binds, b)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range binds {
				b := binds[(k+3*g)%len(binds)]
				p, err := BuildPlan(b.stmt, b.d.Catalog, b.d.Oracle, b.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if p.G.NumEdges() != len(b.want) {
					t.Errorf("goroutine %d, %s: %d edges, want %d", g, b.label, p.G.NumEdges(), len(b.want))
					return
				}
				for e, w := range b.want {
					if got := p.G.Edge(e); got != w || p.Truth[e] != b.truth[e] {
						t.Errorf("goroutine %d, %s: edge %d is %+v (truth %v), want %+v (truth %v)", g, b.label, e, got, p.Truth[e], w, b.truth[e])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBuildPlan measures a 3J plan on the paper dataset without
// its similarity joins (BenchmarkJoin covers those), and the two 3J2S
// plans the cold workloads bind most — full, and LiveOnly over the same
// replayed lists, which is the serving path's bind.
func BenchmarkBuildPlan(b *testing.B) {
	run := func(b *testing.B, stmt *cql.Select, d *dataset.Data, liveOnly bool) {
		cfg := replayJoins(b, stmt, d)
		cfg.LiveOnly = liveOnly
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := BuildPlan(stmt, d.Catalog, d.Oracle, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(p.G.NumEdges()), "edges")
			}
		}
	}
	for _, scale := range []float64{0.3, 1.0} {
		b.Run(fmt.Sprintf("paper@%.1f", scale), func(b *testing.B) {
			stmt, d := paper3J(b, scale)
			run(b, stmt, d, false)
		})
	}
	for _, c := range []struct {
		name  string
		scale float64
	}{{"award", 0.12}, {"paper", 0.3}} {
		st, err := cql.Parse(dataset.Queries(c.name)["3J2S"])
		if err != nil {
			b.Fatal(err)
		}
		d, err := dataset.ByName(c.name, dataset.Config{Seed: 1, Scale: c.scale})
		if err != nil {
			b.Fatal(err)
		}
		for _, liveOnly := range []bool{false, true} {
			mode := map[bool]string{false: "full", true: "live"}[liveOnly]
			b.Run(fmt.Sprintf("%s-3J2S@%v/%s", c.name, c.scale, mode), func(b *testing.B) {
				run(b, st.(*cql.Select), d, liveOnly)
			})
		}
	}
}

// TestBindCounters: a bind adds what it found and what it kept to the
// two bind counters — the same numbers the plan carries — so their
// ratio over any window is the share of candidates that were bound.
func TestBindCounters(t *testing.T) {
	d := dataset.GenAward(dataset.Config{Seed: 1, Scale: 0.12})
	stmt := mustSelect(t, dataset.Queries("award")["3J1S"])
	for _, liveOnly := range []bool{false, true} {
		cfg := replayJoins(t, stmt, d)
		cfg.LiveOnly = liveOnly
		found, kept := mBindCandidates.Value(), mBindEdges.Value()
		p, err := BuildPlan(stmt, d.Catalog, d.Oracle, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if df, dk := mBindCandidates.Value()-found, mBindEdges.Value()-kept; df != int64(p.Candidates) || dk != int64(p.G.NumEdges()) {
			t.Errorf("liveOnly=%v: counters moved by %d / %d, plan has %d candidates, %d edges", liveOnly, df, dk, p.Candidates, p.G.NumEdges())
		}
		if liveOnly == (p.Candidates == p.G.NumEdges()) {
			t.Errorf("liveOnly=%v: %d candidates, %d edges", liveOnly, p.Candidates, p.G.NumEdges())
		}
	}
}

// TestValuePlanMatchesBruteForce: ValuePlan binds the distinct values of
// a column with repeats and whitespace-only values, in first-appearance
// order, and maps every row to its value. Past the Blue identity edges,
// its edges and weights are the reference join's pairs i < j over the
// distinct values, labelled by the oracle, for every similarity
// function (the pre-filtered subset of them for edit distance and
// cosine, as in every join); so, like BuildPlan's joins, it pairs no
// two tokenless values.
func TestValuePlanMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(21)
	words := []string{"acme", "corp", "Acme", "corp.", "univ", "wisconsin", "of", "a"}
	ref := cql.ColRef{Table: "T", Column: "v"}
	for trial := 0; trial < 60; trial++ {
		pool := []string{"", " ", "\t "}
		for len(pool) < 12 {
			var b strings.Builder
			for k := 1 + r.Intn(3); k > 0; k-- {
				b.WriteString(words[r.Intn(len(words))] + " ")
			}
			pool = append(pool, strings.TrimSpace(b.String()))
		}
		values := make([]string, 1+r.Intn(40))
		for i := range values {
			values[i] = pool[r.Intn(len(pool))]
		}
		var distinct []string
		for _, v := range values {
			if !slices.Contains(distinct, v) {
				distinct = append(distinct, v)
			}
		}
		for f := sim.Gram2Jaccard; f <= sim.NoSim; f++ {
			cfg := PlanConfig{Sim: f, Epsilon: 0.3}
			p, row := ValuePlan(ref, values, ExactOracle{}, cfg)
			tb := p.Tables[0]
			if len(tb.Rows) != len(distinct) || p.Tables[1] != tb {
				t.Fatalf("trial %d %v: table holds %d values, want the %d distinct ones", trial, f, len(tb.Rows), len(distinct))
			}
			for k, v := range distinct {
				if got := tb.Cell(k, 0).String(); got != v {
					t.Fatalf("trial %d %v: value %d is %q, want %q", trial, f, k, got, v)
				}
			}
			for i, v := range values {
				if got := tb.Cell(row[i], 0).String(); got != v {
					t.Fatalf("trial %d %v: row %d maps to %q, holds %q", trial, f, i, got, v)
				}
			}
			n := len(distinct)
			for k := 0; k < n; k++ {
				if e := p.G.Edge(k); p.G.RowOf(e.U) != k || p.G.RowOf(e.V) != k || e.Color != graph.Blue || !p.Truth[k] {
					t.Fatalf("trial %d %v: edge %d is %+v, want value %d's Blue identity", trial, f, k, e, k)
				}
			}
			pairs := sim.BruteForceJoin(f, distinct, distinct, cfg.Epsilon)
			if f == sim.EditDistance || f == sim.Cosine {
				// These two verify only the pairs a 2-gram pre-filter
				// passes, a subset of the reference's with the same
				// weights: the bind is held to the join, the join to that.
				brute := map[[2]int]float64{}
				for _, pr := range pairs {
					brute[[2]int{pr.Left, pr.Right}] = pr.Sim
				}
				pairs = sim.Join(f, distinct, distinct, cfg.Epsilon)
				for _, pr := range pairs {
					if w, ok := brute[[2]int{pr.Left, pr.Right}]; !ok || w != pr.Sim {
						t.Fatalf("trial %d %v: join pair %+v, reference weight %v (present %v)", trial, f, pr, w, ok)
					}
				}
			}
			var want []sim.Pair
			for _, pr := range pairs {
				if pr.Left < pr.Right {
					want = append(want, pr)
				}
			}
			if got := p.G.NumEdges() - n; got != len(want) || p.Candidates != len(want) {
				t.Fatalf("trial %d %v: %d candidate edges (Candidates %d), reference has %d", trial, f, got, p.Candidates, len(want))
			}
			for id, pr := range want {
				e := p.G.Edge(n + id)
				if p.G.RowOf(e.U) != pr.Left || p.G.RowOf(e.V) != pr.Right || e.W != pr.Sim || e.Color != graph.Unknown {
					t.Fatalf("trial %d %v: edge %d is %+v, reference pair %+v", trial, f, n+id, e, pr)
				}
				if want := (ExactOracle{}).JoinMatch("T", "v", "T", "v", distinct[pr.Left], distinct[pr.Right]); p.Truth[n+id] != want {
					t.Fatalf("trial %d %v: pair %+v labelled %v", trial, f, pr, p.Truth[n+id])
				}
			}
		}
	}
}
