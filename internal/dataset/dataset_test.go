package dataset

import (
	"strings"
	"testing"

	"cdb/internal/sim"
	"cdb/internal/stats"
)

func TestDatasetShapesPaper(t *testing.T) {
	// Table 2 cardinalities at scale 1.
	d := GenPaper(Config{Seed: 1, Scale: 1})
	want := map[string]int{"Paper": 676, "Citation": 1239, "Researcher": 911, "University": 830}
	for name, n := range want {
		tb, ok := d.Catalog.Get(name)
		if !ok {
			t.Fatalf("missing table %s", name)
		}
		if tb.Len() != n {
			t.Fatalf("%s has %d rows, want %d", name, tb.Len(), n)
		}
	}
}

func TestDatasetShapesAward(t *testing.T) {
	// Table 3 cardinalities at scale 1.
	d := GenAward(Config{Seed: 1, Scale: 1})
	want := map[string]int{"Celebrity": 1498, "City": 3220, "Winner": 2669, "Award": 1192}
	for name, n := range want {
		tb, ok := d.Catalog.Get(name)
		if !ok {
			t.Fatalf("missing table %s", name)
		}
		if tb.Len() != n {
			t.Fatalf("%s has %d rows, want %d", name, tb.Len(), n)
		}
	}
}

func TestGenDeterministic(t *testing.T) {
	a := GenPaper(Config{Seed: 7, Scale: 0.05})
	b := GenPaper(Config{Seed: 7, Scale: 0.05})
	ta, _ := a.Catalog.Get("Paper")
	tb, _ := b.Catalog.Get("Paper")
	if ta.Len() != tb.Len() {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range ta.Rows {
		for j := range ta.Rows[i] {
			if !ta.Rows[i][j].Equal(tb.Rows[i][j]) {
				t.Fatalf("cell (%d,%d) differs across identical seeds", i, j)
			}
		}
	}
	c := GenPaper(Config{Seed: 8, Scale: 0.05})
	tc, _ := c.Catalog.Get("Paper")
	same := 0
	for i := range ta.Rows {
		if ta.Rows[i][0].Equal(tc.Rows[i][0]) {
			same++
		}
	}
	if same == ta.Len() {
		t.Fatal("different seeds produced identical authors")
	}
}

func TestOracleSelfConsistency(t *testing.T) {
	d := GenPaper(Config{Seed: 3, Scale: 0.1})
	res, _ := d.Catalog.Get("Researcher")
	uni, _ := d.Catalog.Get("University")
	// Every affiliation/university value must be registered in the
	// oracle's univ domain.
	affCol := res.Schema.MustColIndex("affiliation")
	for r := 0; r < res.Len(); r++ {
		v := res.Cell(r, affCol).S
		if d.Oracle.EntityOf("univ", v) < 0 {
			t.Fatalf("unregistered affiliation %q", v)
		}
	}
	nameCol := uni.Schema.MustColIndex("name")
	for r := 0; r < uni.Len(); r++ {
		v := uni.Cell(r, nameCol).S
		if d.Oracle.EntityOf("univ", v) < 0 {
			t.Fatalf("unregistered university %q", v)
		}
	}
}

func TestOracleJoinMatchSemantics(t *testing.T) {
	orc := NewOracle()
	orc.BindColumn("A", "x", "d1")
	orc.BindColumn("B", "y", "d1")
	orc.BindColumn("C", "z", "d2")
	orc.Register("d1", "foo", 1)
	orc.Register("d1", "f00", 1)
	orc.Register("d1", "bar", 2)
	orc.Register("d2", "foo", 9)
	if !orc.JoinMatch("A", "x", "B", "y", "foo", "f00") {
		t.Fatal("same-entity variants should match")
	}
	if orc.JoinMatch("A", "x", "B", "y", "foo", "bar") {
		t.Fatal("different entities should not match")
	}
	if orc.JoinMatch("A", "x", "C", "z", "foo", "foo") {
		t.Fatal("cross-domain values should not match")
	}
	if orc.JoinMatch("A", "x", "B", "y", "foo", "unknown") {
		t.Fatal("unregistered values should not match")
	}
	if orc.JoinMatch("A", "nope", "B", "y", "foo", "foo") {
		t.Fatal("unbound columns should not match")
	}
}

func TestOracleSelMatch(t *testing.T) {
	orc := NewOracle()
	orc.BindColumn("University", "country", "country")
	orc.Register("country", "USA", 1)
	orc.Register("country", "US", 1)
	orc.Register("country", "UK", 2)
	if !orc.SelMatch("University", "country", "US", "USA") {
		t.Fatal("US should satisfy CROWDEQUAL 'USA'")
	}
	if orc.SelMatch("University", "country", "UK", "USA") {
		t.Fatal("UK should not satisfy CROWDEQUAL 'USA'")
	}
}

func TestOracleRegisterCollision(t *testing.T) {
	orc := NewOracle()
	if !orc.Register("d", "v", 1) {
		t.Fatal("first registration must succeed")
	}
	if !orc.Register("d", "v", 1) {
		t.Fatal("re-registration to the same entity must succeed")
	}
	if orc.Register("d", "v", 2) {
		t.Fatal("registration to a different entity must fail")
	}
}

func TestDirtierProducesRecognizableVariants(t *testing.T) {
	rng := stats.NewRNG(11)
	d := &Dirtier{R: rng}
	canon := "University of California"
	above := 0
	const n = 300
	for i := 0; i < n; i++ {
		v := d.Variant(canon, 2)
		if v == "" {
			t.Fatal("empty variant")
		}
		if sim.Jaccard2Gram(canon, v) >= 0.3 {
			above++
		}
	}
	// Most variants must stay similar enough to survive the ε=0.3
	// pruning, or crowd joins would have nothing to verify.
	if above < n*80/100 {
		t.Fatalf("only %d/%d variants above the similarity threshold", above, n)
	}
}

func TestDirtierZeroOps(t *testing.T) {
	d := &Dirtier{R: stats.NewRNG(1)}
	if v := d.Variant("hello world", 0); v != "hello world" {
		t.Fatalf("zero-op variant changed the string: %q", v)
	}
}

func TestQueriesParseable(t *testing.T) {
	for _, ds := range []string{"paper", "award"} {
		qs := Queries(ds)
		if len(qs) != 5 {
			t.Fatalf("%s has %d queries", ds, len(qs))
		}
		for _, label := range QueryLabels() {
			if _, ok := qs[label]; !ok {
				t.Fatalf("%s missing query %s", ds, label)
			}
		}
	}
}

func TestRunningExample(t *testing.T) {
	d := RunningExample()
	if d.Catalog.Len() != 4 {
		t.Fatalf("running example has %d tables", d.Catalog.Len())
	}
	pap, _ := d.Catalog.Get("Paper")
	if pap.Len() != 8 {
		t.Fatalf("Paper has %d rows, want 8", pap.Len())
	}
	res, _ := d.Catalog.Get("Researcher")
	if res.Len() != 12 {
		t.Fatalf("Researcher has %d rows, want 12", res.Len())
	}
	// The paper's three answers.
	if !d.Oracle.JoinMatch("Paper", "author", "Researcher", "name", "W. Bruce Croft", "Bruce W Croft") {
		t.Fatal("Croft pair should match")
	}
	if !d.Oracle.JoinMatch("Paper", "title", "Citation", "title",
		"Optimization strategies for complex queries", "Optimal strategy for complex queries") {
		t.Fatal("complex-queries titles should match")
	}
	// The refuted near-miss (p1, c1).
	if d.Oracle.JoinMatch("Paper", "title", "Citation", "title",
		"APrivateClean: Data Cleaning and Differential Privacy.",
		"Towards a Unified Framework for Data Cleaning and Data Privacy.") {
		t.Fatal("p1/c1 titles must NOT match")
	}
	if !d.Oracle.SelMatch("Paper", "conference", "sigmod16", "sigmod") {
		t.Fatal("sigmod16 should satisfy CROWDEQUAL 'sigmod'")
	}
}

func TestCountryVariantsRegistered(t *testing.T) {
	d := GenPaper(Config{Seed: 5, Scale: 0.05})
	if d.Oracle.EntityOf("country", "USA") < 0 || d.Oracle.EntityOf("country", "US") < 0 {
		t.Fatal("country variants missing")
	}
	if d.Oracle.EntityOf("country", "USA") != d.Oracle.EntityOf("country", "United States") {
		t.Fatal("USA variants should share an entity")
	}
}

func TestPaperOverlapProducesAnswers(t *testing.T) {
	// The generator must create genuine cross-table matches, otherwise
	// every query would be answerless.
	d := GenPaper(Config{Seed: 9, Scale: 0.2})
	pap, _ := d.Catalog.Get("Paper")
	res, _ := d.Catalog.Get("Researcher")
	aCol := pap.Schema.MustColIndex("author")
	nCol := res.Schema.MustColIndex("name")
	matches := 0
	for i := 0; i < pap.Len(); i++ {
		for j := 0; j < res.Len(); j++ {
			if d.Oracle.JoinMatch("Paper", "author", "Researcher", "name",
				pap.Cell(i, aCol).S, res.Cell(j, nCol).S) {
				matches++
			}
		}
	}
	if matches == 0 {
		t.Fatal("no true author/name matches generated")
	}
}

func TestVariantsStayInDomain(t *testing.T) {
	// A variant must resolve to the entity it was derived from.
	rng := stats.NewRNG(21)
	orc := NewOracle()
	d := &Dirtier{R: rng.Split()}
	reg := newRegistry(orc, "test", d)
	id := reg.add("University of Wisconsin")
	for i := 0; i < 50; i++ {
		v := reg.variant(id, 2)
		if got := orc.EntityOf("test", v); got != id {
			t.Fatalf("variant %q resolves to %d, want %d", v, got, id)
		}
	}
}

func TestScaleBounds(t *testing.T) {
	d := GenPaper(Config{Seed: 1, Scale: 0.001})
	for _, name := range []string{"Paper", "Citation", "Researcher", "University"} {
		tb, _ := d.Catalog.Get(name)
		if tb.Len() < 1 {
			t.Fatalf("%s empty at tiny scale", name)
		}
	}
}

func TestAwardQueriesReferenceRealColumns(t *testing.T) {
	d := GenAward(Config{Seed: 2, Scale: 0.02})
	for name, cols := range map[string][]string{
		"Celebrity": {"name", "birthplace", "birthday"},
		"City":      {"birthplace", "country"},
		"Winner":    {"name", "award"},
		"Award":     {"name", "place"},
	} {
		tb, ok := d.Catalog.Get(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for _, c := range cols {
			if tb.Schema.ColIndex(c) < 0 {
				t.Fatalf("%s missing column %s", name, c)
			}
		}
	}
	if !strings.Contains(Queries("award")["2J"], "CROWDJOIN") {
		t.Fatal("award queries malformed")
	}
}

// TestByNameComplete pins the dataset table: ByName knows exactly
// paper, award and example, hands them the Config, and answers a typo
// with an error that lists them instead of generating paper.
func TestByNameComplete(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 0.03}
	for name, want := range map[string]string{"paper": "paper", "award": "award", "example": "running-example"} {
		d, err := ByName(name, cfg)
		if err != nil || d.Name != want {
			t.Fatalf("ByName(%s) = %v, %v", name, d, err)
		}
	}
	if a, _ := ByName("paper", cfg); a.Catalog.MustGet("Paper").Len() != GenPaper(cfg).Catalog.MustGet("Paper").Len() {
		t.Error("ByName(paper) did not generate at the given Config")
	}
	d, err := ByName("papr", cfg)
	if d != nil || err == nil || err.Error() != `unknown dataset "papr" (want paper, award, example)` {
		t.Fatalf("ByName(papr) = %v, %v", d, err)
	}
}
