package cdb

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestOpenConfigDefaults pins that a zero Config constructs a working
// empty-catalog instance and that filled fields apply the documented
// defaults (Scale 0 → 1.0, DatasetSeed 0 → Seed).
func TestOpenConfigDefaults(t *testing.T) {
	db, err := OpenConfig(Config{})
	if err != nil {
		t.Fatalf("OpenConfig(zero) = %v", err)
	}
	if err := db.Err(); err != nil {
		t.Fatalf("Err() after valid OpenConfig = %v", err)
	}
	if got := db.TableNames(); len(got) != 0 {
		t.Errorf("zero Config preloaded tables %v", got)
	}

	db, err = OpenConfig(Config{Dataset: "example", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Citation", "Paper", "Researcher", "University"}
	if got := db.TableNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("TableNames() = %v, want %v", got, want)
	}
}

// apply folds options into a zero Config, as Open does.
func apply(opts ...Option) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

type testOracle struct{}

func (testOracle) JoinMatch(_, _, _, _, l, r string) bool { return l == r }
func (testOracle) SelMatch(_, _, v, c string) bool        { return v == c }

// optionTable lists every DB option beside the Config it must produce
// from zero: the two construction routes cover the same set exactly
// when each row holds and every Config field appears in some row.
func optionTable() []struct {
	name string
	opt  Option
	want Config
} {
	markets := []MarketSpec{
		{Name: "amt", AssignControl: true, Workers: 20, Accuracy: 0.9, Stddev: 0.05},
		{Name: "cf", Workers: 15, Accuracy: 0.8, Stddev: 0.1},
	}
	truth := func(string, int, string) string { return "Massachusetts" }
	return []struct {
		name string
		opt  Option
		want Config
	}{
		{"WithSeed", WithSeed(7), Config{Seed: 7}},
		{"WithWorkers", WithWorkers(40, 0.7, 0.1), Config{Workers: 40, WorkerAccuracy: 0.7, WorkerStddev: 0.1}},
		{"WithPerfectWorkers", WithPerfectWorkers(12), Config{Workers: 12, PerfectWorkers: true}},
		{"WithOracle", WithOracle(testOracle{}), Config{Oracle: testOracle{}}},
		{"WithDataset", WithDataset("example", 0.5, 5), Config{Dataset: "example", DatasetScale: 0.5, DatasetSeed: 5}},
		{"WithSimilarity", WithSimilarity("token"), Config{Similarity: "token"}},
		{"WithEpsilon", WithEpsilon(0.2), Config{Epsilon: 0.2}},
		{"WithRedundancy", WithRedundancy(3), Config{Redundancy: 3}},
		{"WithQualityControl", WithQualityControl(true), Config{QualityControl: true}},
		{"WithFillTruth", WithFillTruth(truth), Config{FillTruth: truth}},
		{"WithCollectUniverse", WithCollectUniverse("Col", []string{"a", "b", "c"}),
			Config{CollectUniverse: map[string][]string{"Col": {"a", "b", "c"}}}},
		{"WithMetadata", WithMetadata(), Config{Metadata: true}},
		{"WithCalibration", WithCalibration(true), Config{Calibration: true}},
		{"WithMarkets", WithMarkets(markets...), Config{Markets: markets}},
		{"WithFaults", WithFaults(FaultConfig{Seed: 3, DropRate: 0.2}), Config{Faults: &FaultConfig{Seed: 3, DropRate: 0.2}}},
		{"WithReliability", WithReliability(ReliabilityPolicy{MaxRetries: 2}), Config{Reliability: &ReliabilityPolicy{MaxRetries: 2}}},
		{"WithObserver", WithObserver(NewJSONLWriter(io.Discard)), Config{Observer: NewJSONLWriter(io.Discard)}},
		{"WithTracing", WithTracing(true), Config{Tracing: true}},
		{"WithPlanner", WithPlanner(true), Config{Planner: true}},
	}
}

// TestOptionsAreConfigSetters pins that an option sets the Config
// field(s) it names and nothing else (func and interface fields compare
// by nil-ness), and that no exported Config field lacks an option.
func TestOptionsAreConfigSetters(t *testing.T) {
	opaque := map[string]bool{"Oracle": true, "FillTruth": true, "Observer": true}
	set := map[string]bool{}
	for _, row := range optionTable() {
		got, want := reflect.ValueOf(apply(row.opt)), reflect.ValueOf(row.want)
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			if !want.Field(i).IsZero() {
				set[name] = true
			}
			if opaque[name] {
				if got.Field(i).IsNil() != want.Field(i).IsNil() {
					t.Errorf("%s: %s nil = %v, want %v", row.name, name, got.Field(i).IsNil(), want.Field(i).IsNil())
				}
			} else if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
				t.Errorf("%s: %s = %+v, want %+v", row.name, name, got.Field(i).Interface(), want.Field(i).Interface())
			}
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.IsExported() && !set[f.Name] {
			t.Errorf("Config.%s is set by no option", f.Name)
		}
	}
}

// exercise drives one SELECT, one FILL and one COLLECT — between them
// they read every Config field — and returns what the DB did, minus the
// wall-clock timings of spans and planning.
func exercise(t *testing.T, db *DB) []any {
	t.Helper()
	var out []any
	for _, q := range []string{
		`SELECT * FROM Paper, Researcher WHERE Paper.author CROWDJOIN Researcher.name;`,
		`CREATE TABLE Uni (name varchar(64), state CROWD varchar(32));`,
		`CREATE CROWD TABLE Col (name varchar(64));`,
	} {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out = append(out, res.Trace != nil, db.Metadata() != nil)
		res.Trace = nil
		if res.Plan != nil {
			res.Plan.PlanningMicros = 0
		}
		out = append(out, res)
	}
	if err := db.Insert("Uni", "MIT", "CNULL"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`FILL Uni.state;`, `COLLECT Col.name BUDGET 20;`} {
		res, err := db.Exec(q)
		if res != nil {
			res.Trace = nil
		}
		out = append(out, res, fmt.Sprint(err))
	}
	for _, name := range []string{"Uni", "Col"} {
		rows, err := db.Dump(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rows)
	}
	return out
}

// TestOpenConfigEquivalence pins, one option at a time, that Open with
// the option and OpenConfig with the field it sets are the same DB:
// equal seeds give DeepEqual results.
func TestOpenConfigEquivalence(t *testing.T) {
	for _, row := range optionTable() {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.want
			if cfg.Seed == 0 {
				cfg.Seed = 11
			}
			if cfg.Dataset == "" {
				cfg.Dataset, cfg.DatasetScale, cfg.DatasetSeed = "example", 1, 11
			}
			viaConfig, err := OpenConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			viaOptions := Open(WithSeed(11), WithDataset("example", 1, 11), row.opt)
			if err := viaOptions.Err(); err != nil {
				t.Fatal(err)
			}
			if a, b := exercise(t, viaConfig), exercise(t, viaOptions); !reflect.DeepEqual(a, b) {
				t.Errorf("OpenConfig differs from the equivalent Open:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestOptionOrderIrrelevant pins that the crowd depends on what was
// configured, never on the order it was spelled in: every permutation
// of four options that between them reseed, size the pool, add markets
// and load data answers one CROWDJOIN identically, and identically to
// OpenConfig of the same fields.
func TestOptionOrderIrrelevant(t *testing.T) {
	const q = `SELECT * FROM Paper, Researcher WHERE Paper.author CROWDJOIN Researcher.name;`
	markets := []MarketSpec{
		{Name: "amt", AssignControl: true, Workers: 20, Accuracy: 0.9, Stddev: 0.05},
		{Name: "cf", Workers: 15, Accuracy: 0.6, Stddev: 0.1},
	}
	db, err := OpenConfig(Config{Seed: 11, Workers: 40, WorkerAccuracy: 0.7, WorkerStddev: 0.1,
		Markets: markets, Dataset: "example", DatasetScale: 1, DatasetSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want := db.MustExec(q)
	opts := []Option{WithSeed(11), WithWorkers(40, 0.7, 0.1), WithMarkets(markets...), WithDataset("example", 1, 11)}
	var permute func(k int)
	permute = func(k int) {
		if k == len(opts) {
			if got := Open(opts...).MustExec(q); !reflect.DeepEqual(got, want) {
				t.Errorf("an option order changed the result: %d rows, %+v; want %d rows, %+v",
					len(got.Rows), got.Stats, len(want.Rows), want.Stats)
			}
			return
		}
		for i := k; i < len(opts); i++ {
			opts[k], opts[i] = opts[i], opts[k]
			permute(k + 1)
			opts[k], opts[i] = opts[i], opts[k]
		}
	}
	permute(0)
}

// TestOpenConfigInvalid pins that every knob Open silently falls back
// on fails OpenConfig with an error naming the bad value.
func TestOpenConfigInvalid(t *testing.T) {
	market := func(m MarketSpec) Config {
		return Config{Markets: []MarketSpec{{Name: "ok", Workers: 5, Accuracy: 0.8}, m}}
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"dataset", Config{Dataset: "imdb"}, `unknown dataset "imdb" (want paper, award, example)`},
		{"similarity", Config{Similarity: "3gram"}, `unknown similarity "3gram" (want 2gram, token, edit, cosine, none)`},
		{"epsilon-high", Config{Epsilon: 1.5}, "epsilon 1.5 out of range"},
		{"epsilon-negative", Config{Epsilon: -0.1}, "epsilon -0.1 out of range"},
		{"redundancy", Config{Redundancy: -3}, "redundancy -3 must be positive"},
		{"workers", Config{Workers: -5}, "worker count -5 must be positive"},
		{"accuracy", Config{WorkerAccuracy: 1.7}, "accuracy 1.7 out of range"},
		{"stddev", Config{Workers: 10, WorkerAccuracy: 0.8, WorkerStddev: -1}, "stddev -1 must be non-negative"},
		{"perfect-zero", apply(WithPerfectWorkers(0)), "worker count 0 must be positive"},
		{"perfect-unsized", Config{PerfectWorkers: true}, "worker count 0 must be positive"},
		{"perfect-negative", Config{PerfectWorkers: true, Workers: -2}, "worker count -2 must be positive"},
		{"perfect-accuracy", Config{PerfectWorkers: true, Workers: 10, WorkerAccuracy: 0.9}, "perfect workers contradict worker accuracy 0.9"},
		{"perfect-stddev", Config{PerfectWorkers: true, Workers: 10, WorkerStddev: 0.1}, "perfect workers contradict"},
		{"scale", Config{Dataset: "paper", DatasetScale: -1}, "dataset scale -1 must be non-negative"},
		{"market-workers", market(MarketSpec{Name: "m", Workers: 0, Accuracy: 7}), "market {Name:m"},
		{"market-accuracy", market(MarketSpec{Name: "m", Workers: 5, Accuracy: 7}), "accuracy in [0, 1]"},
		{"market-stddev", market(MarketSpec{Name: "m", Workers: 5, Accuracy: 0.8, Stddev: -1}), "stddev >= 0"},
		{"market-unnamed", market(MarketSpec{Workers: 5, Accuracy: 0.8}), "distinct non-empty name"},
		{"market-duplicate", market(MarketSpec{Name: "ok", Workers: 5, Accuracy: 0.8}), "distinct non-empty name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := OpenConfig(tc.cfg)
			if err == nil {
				t.Fatalf("OpenConfig(%+v) succeeded, want error %q", tc.cfg, tc.want)
			}
			if db != nil {
				t.Errorf("OpenConfig returned a DB alongside the error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNewEngineInvalid pins that negative engine sizes are refused
// rather than read as "default"; a negative result cache still means
// "off".
func TestNewEngineInvalid(t *testing.T) {
	db := Open(WithDataset("example", 0, 1))
	for name, opt := range map[string]EngineOption{
		"max-inflight":  WithMaxInFlight(-1),
		"max-queue":     WithMaxQueue(-1),
		"verdict-cache": WithVerdictCache(-1),
	} {
		if e, err := db.NewEngine(opt); err == nil {
			e.Close()
			t.Errorf("%s: NewEngine accepted -1", name)
		}
	}
	e, err := db.NewEngine(WithResultCache(-1), WithMaxInFlight(0), WithMaxQueue(0), WithVerdictCache(0))
	if err != nil {
		t.Fatalf("zero sizes and a disabled result cache: %v", err)
	}
	e.Close()
}

// TestNewEngineRefusesDroppedSettings pins that a DB configured with a
// setting the engine cannot serve gets an error naming the setting, not
// an engine that silently serves majority-voting CDB without it.
func TestNewEngineRefusesDroppedSettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"QualityControl", Config{QualityControl: true}},
		{"Markets", Config{Markets: []MarketSpec{{Name: "amt", Workers: 10, Accuracy: 0.9}}}},
		{"Faults", Config{Faults: &FaultConfig{DropRate: 0.1}}},
		{"Reliability", Config{Reliability: &ReliabilityPolicy{}}},
		{"Calibration", Config{Calibration: true}},
		{"Metadata", Config{Metadata: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Dataset = "example"
			db, err := OpenConfig(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			e, err := db.NewEngine()
			if err == nil {
				e.Close()
				t.Fatal("NewEngine accepted a setting it cannot serve")
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("error %q does not name %s", err, tc.name)
			}
		})
	}
	db, err := OpenConfig(Config{Dataset: "example", Planner: true, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := db.NewEngine()
	if err != nil {
		t.Fatalf("settings the engine serves: %v", err)
	}
	e.Close()
}

// TestOpenLenientErr pins Open's backward-compatible contract: invalid
// knobs never fail construction, but every one is recorded and
// surfaced — joined — by Err.
func TestOpenLenientErr(t *testing.T) {
	db := Open(
		WithDataset("imdb", 1, 1),
		WithEpsilon(2),
		WithSimilarity("3gram"),
	)
	if db == nil {
		t.Fatal("Open returned nil for invalid options")
	}
	err := db.Err()
	if err == nil {
		t.Fatal("Err() = nil after three invalid options")
	}
	for _, want := range []string{`unknown dataset "imdb"`, "epsilon 2 out of range", `unknown similarity "3gram"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Err() %q does not mention %q", err, want)
		}
	}
	// The fallback behaviour is preserved: the bogus dataset name still
	// loads the paper dataset, as Open always did.
	if got := db.TableNames(); len(got) == 0 {
		t.Errorf("lenient Open did not fall back to a loaded dataset")
	}

	// An unsized perfect crowd is reported and falls back to the default
	// size: it used to run every task with zero assignments, silently.
	db = Open(WithPerfectWorkers(0), WithDataset("example", 0, 1))
	if db.Err() == nil {
		t.Error("Err() = nil after WithPerfectWorkers(0)")
	}
	res := db.MustExec(`SELECT * FROM Paper, Researcher WHERE Paper.author CROWDJOIN Researcher.name;`)
	if res.Stats.Assignments == 0 || len(res.Rows) == 0 {
		t.Errorf("WithPerfectWorkers(0) ran with no crowd: %d rows, %+v", len(res.Rows), res.Stats)
	}
}

// TestTypedErrors pins the errors.Is/As contract of the exported
// sentinels at their library-level sites.
func TestTypedErrors(t *testing.T) {
	db := Open(WithDataset("example", 0, 1), WithPerfectWorkers(10))

	// CQL syntax error → *ParseError with a position.
	_, err := db.Exec("SELECT * FORM Paper;")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("syntax error = %v (%T), want *ParseError", err, err)
	}
	if pe.Offset < 0 || pe.Near == "" {
		t.Errorf("ParseError lacks a position: offset %d near %q", pe.Offset, pe.Near)
	}

	// Unknown table in FROM → ErrUnknownTable.
	_, err = db.Exec("SELECT * FROM Nonesuch, Paper WHERE Nonesuch.a CROWDJOIN Paper.title;")
	if !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("unknown FROM table = %v, want ErrUnknownTable", err)
	}

	// Unknown table in INSERT → ErrUnknownTable.
	if err := db.Insert("Nonesuch", "x"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("Insert into missing table = %v, want ErrUnknownTable", err)
	}

	// Unknown table in COLLECT → ErrUnknownTable.
	_, err = db.Exec("COLLECT Nonesuch.x;")
	if !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("COLLECT on missing table = %v, want ErrUnknownTable", err)
	}
}
