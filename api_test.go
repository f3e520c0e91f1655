package cdb

import (
	"math/bits"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestQuickstartRunningExample(t *testing.T) {
	db := Open(WithDataset("example", 0, 1), WithPerfectWorkers(30), WithSeed(7))
	res, err := db.Exec(`SELECT Researcher.name, Citation.number
		FROM Paper, Researcher, Citation, University
		WHERE Paper.author CROWDJOIN Researcher.name AND
		      Paper.title CROWDJOIN Citation.title AND
		      Researcher.affiliation CROWDJOIN University.name;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("answers = %d, want the paper's 3", len(res.Rows))
	}
	if res.Stats.Recall < 0.99 || res.Stats.Precision < 0.99 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.Tasks == 0 || res.Stats.Rounds == 0 || res.Stats.Dollars <= 0 {
		t.Fatalf("missing stats: %+v", res.Stats)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "Researcher.name" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := Open(WithPerfectWorkers(20), WithSeed(3))
	db.MustExec(`CREATE TABLE Person (name varchar(64), city varchar(32));`)
	db.MustExec(`CREATE TABLE Town (city varchar(32), country varchar(32));`)
	if err := db.Insert("Person", "Alice Smith", "Springfield"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Person", "Bob Jones", "Shelbyville"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Town", "Springfield", "USA"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT Person.name, Town.country FROM Person, Town
		WHERE Person.city CROWDJOIN Town.city;`)
	if err != nil {
		t.Fatal(err)
	}
	// ExactOracle: only the identical "Springfield" pair truly joins.
	if len(res.Rows) != 1 || res.Rows[0][0] != "Alice Smith" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInsertErrors(t *testing.T) {
	db := Open()
	if err := db.Insert("ghost", "x"); err == nil {
		t.Fatal("insert into missing table should fail")
	}
	db.MustExec(`CREATE TABLE T (a varchar(8), n int);`)
	if err := db.Insert("T", "only-one"); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if err := db.Insert("T", "x", "notanint"); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := db.Exec(`CREATE TABLE T (a varchar(8));`); err == nil {
		t.Fatal("duplicate create should fail")
	}
}

func TestDumpAndTableNames(t *testing.T) {
	db := Open(WithDataset("example", 0, 1))
	names := db.TableNames()
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	rows, err := db.Dump("Paper")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 || rows[0][0] != "author" {
		t.Fatalf("dump shape: %d rows, header %v", len(rows), rows[0])
	}
	if _, err := db.Dump("ghost"); err == nil {
		t.Fatal("dump of missing table should fail")
	}
}

func TestBudgetViaCQL(t *testing.T) {
	db := Open(WithDataset("example", 0, 1), WithPerfectWorkers(30), WithSeed(5))
	res, err := db.Exec(`SELECT * FROM Paper, Researcher, Citation, University
		WHERE Paper.author CROWDJOIN Researcher.name AND
		      Paper.title CROWDJOIN Citation.title AND
		      Researcher.affiliation CROWDJOIN University.name
		BUDGET 6;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tasks > 6 {
		t.Fatalf("budget overrun: %+v", res.Stats)
	}
}

func TestQualityControlMode(t *testing.T) {
	db := Open(WithDataset("example", 0, 1), WithWorkers(25, 0.75, 0.1), WithQualityControl(true), WithSeed(9))
	res, err := db.Exec(`SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.F1 == 0 && len(res.Rows) == 0 {
		t.Log("no answers at this noise level — acceptable but unusual")
	}
}

func TestFillStatement(t *testing.T) {
	db := Open(WithPerfectWorkers(20), WithSeed(13),
		WithFillTruth(func(tbl string, row int, col string) string { return "Massachusetts" }))
	db.MustExec(`CREATE TABLE Uni (name varchar(64), state CROWD varchar(32));`)
	if err := db.Insert("Uni", "MIT", "CNULL"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Uni", "Harvard", "CNULL"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Uni", "Stanford", "California"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`FILL Uni.state;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tasks != 2 {
		t.Fatalf("filled %d cells, want 2 (one was already set)", res.Stats.Tasks)
	}
	rows, _ := db.Dump("Uni")
	for _, r := range rows[1:3] {
		if r[1] != "Massachusetts" {
			t.Fatalf("fill result = %v", r)
		}
	}
	// Early stop with perfect workers: 3 assignments per cell, not 5.
	if res.Stats.Assignments != 6 {
		t.Fatalf("assignments = %d, want 6 (early stop at 3 agreeing)", res.Stats.Assignments)
	}
}

func TestFillRequiresCrowdColumn(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE T (a varchar(8), b varchar(8));`)
	if _, err := db.Exec(`FILL T.a;`); err == nil || !strings.Contains(err.Error(), "CROWD") {
		t.Fatalf("expected CROWD-column error, got %v", err)
	}
}

func TestFillWithWhere(t *testing.T) {
	db := Open(WithPerfectWorkers(20), WithSeed(17),
		WithFillTruth(func(string, int, string) string { return "yes" }))
	db.MustExec(`CREATE TABLE R (name varchar(32), gender varchar(16), tenured CROWD varchar(8));`)
	_ = db.Insert("R", "a", "female", "CNULL")
	_ = db.Insert("R", "b", "male", "CNULL")
	res, err := db.Exec(`FILL R.tenured WHERE R.gender = 'female';`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tasks != 1 {
		t.Fatalf("filled %d, want 1 (WHERE filter)", res.Stats.Tasks)
	}
	rows, _ := db.Dump("R")
	if rows[1][2] != "yes" || rows[2][2] != "CNULL" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCollectStatement(t *testing.T) {
	universe := []string{"MIT", "Stanford", "CMU", "Berkeley", "Oxford"}
	db := Open(WithPerfectWorkers(20), WithSeed(19),
		WithCollectUniverse("University", universe))
	db.MustExec(`CREATE CROWD TABLE University (name varchar(64), country CROWD varchar(32));`)
	res, err := db.Exec(`COLLECT University.name BUDGET 50;`)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := db.Dump("University")
	if len(rows)-1 != len(universe) {
		t.Fatalf("collected %d rows, want the full universe %d (message: %s)", len(rows)-1, len(universe), res.Message)
	}
	if res.Stats.Tasks > 50 {
		t.Fatalf("collect exceeded budget: %+v", res.Stats)
	}
	// Secondary column left CNULL for a later FILL.
	if rows[1][1] != "CNULL" {
		t.Fatalf("secondary column = %q", rows[1][1])
	}
}

func TestCollectErrors(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE Plain (name varchar(8));`)
	if _, err := db.Exec(`COLLECT Plain.name;`); err == nil || !strings.Contains(err.Error(), "CROWD") {
		t.Fatalf("want CROWD-table error, got %v", err)
	}
	db.MustExec(`CREATE CROWD TABLE C (name varchar(8));`)
	if _, err := db.Exec(`COLLECT C.name;`); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Fatalf("want universe error, got %v", err)
	}
	if _, err := db.Exec(`COLLECT Ghost.name;`); err == nil {
		t.Fatal("unknown table should fail")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int, int) {
		db := Open(WithDataset("example", 0, 1), WithWorkers(25, 0.8, 0.1), WithSeed(23))
		res := db.MustExec(`SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title;`)
		return res.Stats.Tasks, len(res.Rows)
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", t1, r1, t2, r2)
	}
}

func TestGeneratedDatasetOption(t *testing.T) {
	db := Open(WithDataset("paper", 0.05, 2), WithPerfectWorkers(20))
	if len(db.TableNames()) != 4 {
		t.Fatalf("tables = %v", db.TableNames())
	}
	res, err := db.Exec(`SELECT Paper.title, Citation.number FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recall < 0.99 {
		t.Fatalf("recall = %v", res.Stats.Recall)
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`SELEKT * FROM x`); err == nil {
		t.Fatal("bad CQL should error")
	}
}

func TestCrossMarketOption(t *testing.T) {
	db := Open(
		WithDataset("example", 0, 1),
		WithSeed(29),
		WithMarkets(
			MarketSpec{Name: "AMT", AssignControl: true, Workers: 20, Accuracy: 0.95, Stddev: 0.03},
			MarketSpec{Name: "ChinaCrowd", Workers: 20, Accuracy: 0.9, Stddev: 0.05},
		),
	)
	res, err := db.Exec(`SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tasks == 0 {
		t.Fatalf("no tasks issued: %+v", res.Stats)
	}
}

// TestOrderByViaCQL: with perfect workers ORDER BY sorts the join's
// rows, and its rounds beyond the join's are at most 3·⌈log₂n⌉ for the
// join's n distinct values: every part of the sort asks at once.
func TestOrderByViaCQL(t *testing.T) {
	const join = `SELECT Paper.title, Citation.number
		FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title`
	open := func() *DB { return Open(WithDataset("example", 0, 1), WithPerfectWorkers(30), WithSeed(33)) }
	res, err := open().Exec(join + ` ORDER BY Citation.number;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	prev := -1
	for _, r := range res.Rows {
		n, err := strconv.Atoi(r[1])
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("not sorted: %v", res.Rows)
		}
		prev = n
	}
	plain := open().MustExec(join + `;`)
	var values []string
	for _, r := range plain.Rows {
		if !slices.Contains(values, r[1]) {
			values = append(values, r[1])
		}
	}
	if got, limit := res.Stats.Rounds-plain.Stats.Rounds, 3*bits.Len(uint(len(values)-1)); got > limit {
		t.Fatalf("the sort of %d values took %d rounds, over 3·⌈log₂n⌉ = %d", len(values), got, limit)
	}
}

func TestGroupByViaCQL(t *testing.T) {
	db := Open(WithDataset("example", 0, 1), WithPerfectWorkers(30), WithSeed(35))
	res, err := db.Exec(`SELECT Paper.conference
		FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title
		GROUP BY Paper.conference;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[len(res.Columns)-1] != "group_count" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// All "sigmod*" variants collapse into one group; "sigir" (if
	// present among the answers) stays separate.
	sigmodGroups := 0
	for _, r := range res.Rows {
		if strings.Contains(strings.ToLower(r[0]), "sigmod") {
			sigmodGroups++
		}
	}
	if sigmodGroups != 1 {
		t.Fatalf("sigmod variants should form one group: %v", res.Rows)
	}
}

func TestGroupByRequiresProjectedColumn(t *testing.T) {
	db := Open(WithDataset("example", 0, 1), WithPerfectWorkers(10))
	_, err := db.Exec(`SELECT Paper.title FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title
		GROUP BY Paper.conference;`)
	if err == nil || !strings.Contains(err.Error(), "projection") {
		t.Fatalf("want projection error, got %v", err)
	}
}

func TestMetadataOption(t *testing.T) {
	db := Open(WithDataset("example", 0, 1), WithPerfectWorkers(20), WithMetadata(), WithSeed(37))
	res := db.MustExec(`SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title;`)
	store := db.Metadata()
	if store == nil {
		t.Fatal("metadata store missing")
	}
	if store.Tasks().Len() != res.Stats.Tasks {
		t.Fatalf("recorded %d tasks, stats say %d", store.Tasks().Len(), res.Stats.Tasks)
	}
	st := store.ComputeStats()
	if st.Assignments != res.Stats.Assignments {
		t.Fatalf("assignments mismatch: %d vs %d", st.Assignments, res.Stats.Assignments)
	}
}

func TestCalibrationOption(t *testing.T) {
	db := Open(WithDataset("paper", 0.06, 5), WithPerfectWorkers(20), WithCalibration(true), WithSeed(39))
	res, err := db.Exec(`SELECT Paper.title, Citation.number FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recall < 0.99 {
		t.Fatalf("calibrated run recall = %v", res.Stats.Recall)
	}
}

// TestPerfectCrowdAlwaysExact is an end-to-end property test: with an
// infallible crowd, every strategy on every generated instance must
// return exactly the ground-truth answers.
func TestPerfectCrowdAlwaysExact(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, q := range []string{"2J", "2J1S"} {
			db := Open(WithDataset("paper", 0.05, seed), WithPerfectWorkers(25), WithSeed(seed))
			query := queriesForTest(q)
			res, err := db.Exec(query)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, q, err)
			}
			if res.Stats.Precision < 1 || res.Stats.Recall < 1 {
				t.Fatalf("seed %d %s: P=%v R=%v", seed, q, res.Stats.Precision, res.Stats.Recall)
			}
		}
	}
}

func queriesForTest(label string) string {
	switch label {
	case "2J1S":
		return `SELECT Paper.title, Researcher.affiliation, Citation.number
			FROM Paper, Citation, Researcher
			WHERE Paper.title CROWDJOIN Citation.title AND
			      Paper.author CROWDJOIN Researcher.name AND
			      Paper.conference CROWDEQUAL "sigmod";`
	default:
		return `SELECT Paper.title, Researcher.affiliation, Citation.number
			FROM Paper, Citation, Researcher
			WHERE Paper.title CROWDJOIN Citation.title AND
			      Paper.author CROWDJOIN Researcher.name;`
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := Open(WithDataset("example", 0, 1))
	if err := src.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	dst := Open(WithPerfectWorkers(20), WithSeed(43))
	if err := dst.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(dst.TableNames()) != 4 {
		t.Fatalf("loaded tables = %v", dst.TableNames())
	}
	a, _ := src.Dump("Paper")
	b, _ := dst.Dump("Paper")
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("cell (%d,%d): %q vs %q", i, j, a[i][j], b[i][j])
			}
		}
	}
	// The reloaded catalog still answers queries (exact oracle now, so
	// only identical pairs join; the plan must at least build).
	if _, err := dst.Exec(`SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title;`); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDirErrors(t *testing.T) {
	db := Open()
	if err := db.LoadDir("/nonexistent-dir-xyz"); err == nil {
		t.Fatal("missing dir accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/Bad.schema", []byte("nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDir(dir); err == nil {
		t.Fatal("bad schema accepted")
	}
}

func TestCyclicQueryEndToEnd(t *testing.T) {
	// Three mutually joined tables — a cyclic join structure (§5.1.1's
	// graph case). Validity falls back to backtracking; internal/engine's
	// TestCyclicQueryMinCut runs the MinCut sampler over the same case.
	db := Open(WithPerfectWorkers(20), WithSeed(47), WithEpsilon(0.2))
	db.MustExec(`CREATE TABLE A (x varchar(16), y varchar(16));`)
	db.MustExec(`CREATE TABLE B (x varchar(16), y varchar(16));`)
	db.MustExec(`CREATE TABLE C (x varchar(16), y varchar(16));`)
	// One true triangle (alpha) and one broken one (beta/gamma).
	_ = db.Insert("A", "alpha", "alpha")
	_ = db.Insert("B", "alpha", "alpha")
	_ = db.Insert("C", "alpha", "alpha")
	_ = db.Insert("A", "beta", "beta")
	_ = db.Insert("B", "beta", "betb") // similar but unequal: red edge
	_ = db.Insert("C", "beta", "beta")
	res, err := db.Exec(`SELECT A.x, B.x, C.x FROM A, B, C
		WHERE A.x CROWDJOIN B.x AND B.y CROWDJOIN C.y AND C.x CROWDJOIN A.y;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recall < 1 || res.Stats.Precision < 1 {
		t.Fatalf("stats %+v rows %v", res.Stats, res.Rows)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "alpha" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCollectBudgetExhaustion(t *testing.T) {
	universe := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	db := Open(WithWorkers(10, 0.5, 0.1), WithSeed(53),
		WithCollectUniverse("U", universe))
	db.MustExec(`CREATE CROWD TABLE U (name varchar(8));`)
	res := db.MustExec(`COLLECT U.name BUDGET 3;`)
	if res.Stats.Tasks > 3 {
		t.Fatalf("budget exceeded: %+v", res.Stats)
	}
	rows, _ := db.Dump("U")
	if len(rows)-1 > 3 {
		t.Fatalf("collected %d rows on budget 3", len(rows)-1)
	}
	// A second COLLECT resumes where the first stopped (already-present
	// rows are recognized).
	res2 := db.MustExec(`COLLECT U.name BUDGET 100;`)
	rows, _ = db.Dump("U")
	if len(rows)-1 != len(universe) {
		t.Fatalf("resume collected %d rows, want %d (%s)", len(rows)-1, len(universe), res2.Message)
	}
}

func TestFillWithoutTruthFunc(t *testing.T) {
	// Without WithFillTruth the machinery still runs, drawing a value
	// from the column's existing pool.
	db := Open(WithPerfectWorkers(10), WithSeed(57))
	db.MustExec(`CREATE TABLE T (name varchar(8), tag CROWD varchar(8));`)
	_ = db.Insert("T", "a", "known")
	_ = db.Insert("T", "b", "CNULL")
	res := db.MustExec(`FILL T.tag;`)
	if res.Stats.Tasks != 1 {
		t.Fatalf("tasks = %d", res.Stats.Tasks)
	}
	rows, _ := db.Dump("T")
	if rows[2][1] == "CNULL" {
		t.Fatal("cell left unfilled")
	}
}

func TestBenchDeterminism(t *testing.T) {
	// The whole experiment harness is replayable: same config, same
	// rows.
	run := func() string {
		db := Open(WithDataset("paper", 0.04, 3), WithWorkers(20, 0.8, 0.1), WithSeed(61))
		res := db.MustExec(`SELECT Paper.title, Citation.number FROM Paper, Citation
			WHERE Paper.title CROWDJOIN Citation.title;`)
		return res.Message
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %q vs %q", a, b)
	}
}
