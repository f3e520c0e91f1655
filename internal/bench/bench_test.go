package bench

import (
	"bytes"
	"strings"
	"testing"

	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/stats"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.04
	cfg.Reps = 1
	cfg.Samples = 5
	return cfg
}

func rowsByLabel(t *Table) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range t.Rows {
		out[strings.Join(r.Labels, "|")] = r.Values
	}
	return out
}

func TestFig1ShowsTupleLevelWin(t *testing.T) {
	tables, err := Fig1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsByLabel(tables[0])
	treeBest := rows["tree-best"][0]
	cdbGraph := rows["CDB-graph"][0]
	if cdbGraph >= treeBest {
		t.Fatalf("graph (%v) should beat the best tree order (%v)", cdbGraph, treeBest)
	}
	if treeBest/cdbGraph < 2 {
		t.Fatalf("motivating gap too small: tree %v vs graph %v", treeBest, cdbGraph)
	}
}

func TestFig8GridComplete(t *testing.T) {
	cfg := tinyConfig()
	tables, err := Fig8to10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("want cost/quality/latency tables, got %d", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 5*len(Methods) {
			t.Fatalf("%s has %d rows, want %d", tb.ID, len(tb.Rows), 5*len(Methods))
		}
	}
	// The headline comparison on at least the plain join queries:
	// CDB's cost should not exceed the rule-based tree systems'.
	cost := rowsByLabel(tables[0])
	for _, q := range []string{"2J", "3J"} {
		cdbTasks := cost[q+"|CDB"][0]
		crowddb := cost[q+"|CrowdDB"][0]
		if cdbTasks > crowddb*1.05 {
			t.Fatalf("%s: CDB %v tasks vs CrowdDB %v", q, cdbTasks, crowddb)
		}
	}
	// ER methods dominate the round counts.
	rounds := rowsByLabel(tables[2])
	for _, q := range []string{"2J", "3J"} {
		if rounds[q+"|Trans"][0] <= rounds[q+"|CDB"][0] {
			t.Fatalf("%s: Trans rounds %v should exceed CDB %v", q, rounds[q+"|Trans"][0], rounds[q+"|CDB"][0])
		}
	}
}

func TestFig17Shapes(t *testing.T) {
	tables, err := Fig17(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	collect := rowsByLabel(tables[0])
	if collect["100|CDB"][0] >= collect["100|Deco"][0] {
		t.Fatalf("autocompletion should need fewer questions: CDB %v vs Deco %v",
			collect["100|CDB"][0], collect["100|Deco"][0])
	}
	// The improvement grows with the number of results (the paper's
	// observation).
	gapSmall := collect["020|Deco"][0] - collect["020|CDB"][0]
	gapBig := collect["100|Deco"][0] - collect["100|CDB"][0]
	if gapBig <= gapSmall {
		t.Fatalf("duplicate waste should grow: gap@20=%v gap@100=%v", gapSmall, gapBig)
	}
	fill := rowsByLabel(tables[1])
	if fill["100|CDB"][0] >= fill["100|Deco"][0] {
		t.Fatalf("early stop should save assignments: CDB %v vs Deco %v",
			fill["100|CDB"][0], fill["100|Deco"][0])
	}
}

func TestFig18BudgetShapes(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.08
	tables, err := Fig18(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsByLabel(tables[0])
	// At a mid budget CDB's recall beats the baseline's.
	if rows["0200|CDB"][0] <= rows["0200|Baseline"][0] {
		t.Fatalf("budgeted CDB recall %v should beat baseline %v",
			rows["0200|CDB"][0], rows["0200|Baseline"][0])
	}
	// Recall grows with budget for CDB.
	if rows["0800|CDB"][0] < rows["0100|CDB"][0] {
		t.Fatalf("recall should grow with budget: %v -> %v", rows["0100|CDB"][0], rows["0800|CDB"][0])
	}
}

func TestFig22Tradeoff(t *testing.T) {
	cfg := tinyConfig()
	tables, err := Fig22(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsByLabel(tables[0])
	// Looser latency constraint never increases CDB's cost (much).
	if rows["6|CDB"][0] > rows["1|CDB"][0]*1.02+1 {
		t.Fatalf("cost should fall as rounds relax: r=1 %v, r=6 %v", rows["1|CDB"][0], rows["6|CDB"][0])
	}
}

func TestTable5Runs(t *testing.T) {
	cfg := tinyConfig()
	tables, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 10 {
		t.Fatalf("rows = %d, want 2 datasets x 5 queries", len(tables[0].Rows))
	}
	for _, r := range tables[0].Rows {
		if r.Values[0] < 0 {
			t.Fatalf("negative timing: %+v", r)
		}
	}
}

func TestRenderProducesAlignedText(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "demo",
		LabelNames: []string{"k"},
		ValueNames: []string{"v"},
		Rows:       []Row{{Labels: []string{"a"}, Values: []float64{1.5}}},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: demo ==") || !strings.Contains(out, "1.500") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestRegistryComplete(t *testing.T) {
	listed := map[string]bool{}
	for _, id := range ExperimentIDs() {
		if Registry[id] == nil {
			t.Fatalf("experiment %s missing from registry", id)
		}
		if listed[id] {
			t.Fatalf("experiment %s listed twice", id)
		}
		listed[id] = true
	}
	for id := range Registry {
		if !listed[id] {
			t.Fatalf("registry key %s missing from ExperimentIDs", id)
		}
	}
}

func TestGenDataDatasets(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dataset = "award"
	if _, err := Fig22(cfg); err != nil {
		t.Fatal(err)
	}
	// A typo is an error naming the valid datasets, not a silent "paper".
	cfg.Dataset = "papr"
	for id, run := range map[string]func(Config) ([]*Table, error){"fig8": Fig8to10, "chaos": Chaos} {
		if _, err := run(cfg); err == nil || !strings.Contains(err.Error(), "want paper, award, example") {
			t.Errorf("%s on dataset papr: error = %v", id, err)
		}
	}
}

// TestMethodsConstruct pins how every method label of the figures
// fills its pipeline request: CDB and CDB+ configure no strategy, as
// DB.Exec never does, every other label resolves through the shared
// strategy table, and CDB+ alone turns on CDB+ quality control.
func TestMethodsConstruct(t *testing.T) {
	cfg := tinyConfig()
	d, err := dataset.ByName(cfg.Dataset, dataset.Config{Seed: 1, Scale: cfg.Scale})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range Methods {
		req, err := newCell(source(d), dataset.Queries("paper")["2J"], method, cfg, nil, stats.NewRNG(1))
		if err != nil {
			t.Errorf("%s: %v", method, err)
			continue
		}
		configured := method != "CDB" && method != "CDB+"
		if (req.Strategy != nil) != configured || (req.Exec.Quality == exec.CDBPlus) != (method == "CDB+") {
			t.Errorf("%s: configured strategy = %v, quality = %v", method, req.Strategy != nil, req.Exec.Quality)
		}
	}
}

// TestPlanSavesHITs reports what the greedy order saves over the
// unplanned one on the Table-4 selection statements (2J1S, 3J1S, 3J2S),
// where a table-level predicate rank has the most to prune. PlanBench
// itself fails when an EXPLAIN differs from the executed plan or the two
// orders' answers diverge. No floor is asserted: at DefaultConfig greedy
// spends 1 781 HITs there against the unplanned order's 1 763, so the
// planner stays opt-in (DESIGN.md §17).
func TestPlanSavesHITs(t *testing.T) {
	tables, err := PlanBench(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsByLabel(tables[1])
	// values: cdb_hits, greedy_hits, cdb_rounds, greedy_rounds
	var cdbHITs, greedyHITs float64
	for _, label := range []string{"2J1S", "3J1S", "3J2S"} {
		r := rows[label]
		if r == nil {
			t.Fatalf("no %s row in %+v", label, tables[1].Rows)
		}
		cdbHITs += r[0]
		greedyHITs += r[1]
	}
	t.Logf("selection statements: greedy %v HITs, unplanned %v", greedyHITs, cdbHITs)
}

func TestChaosFaultDropPinsGrid(t *testing.T) {
	cfg := tinyConfig()
	cfg.FaultDrop = 0.1
	tables, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsByLabel(tables[0])
	if len(tables[0].Rows) != 2 || rows["CDB|0.10"] == nil || rows["CDB+|0.10"] == nil {
		t.Fatalf("want exactly CDB and CDB+ at drop 0.10, got %+v", tables[0].Rows)
	}
}
