package cdb_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"cdb"
)

// TestTraceSpanTree executes a CROWDJOIN query end to end with tracing
// on and checks the structural invariants of the resulting span tree:
// exactly one root query span with parse/plan children, one round span
// per crowd round, and per-round task counts that reconcile exactly
// with the query's cost metric.
func TestTraceSpanTree(t *testing.T) {
	db := cdb.Open(
		cdb.WithDataset("example", 0, 1),
		cdb.WithPerfectWorkers(30),
		cdb.WithSeed(3),
		cdb.WithTracing(true),
	)
	res, err := db.Exec(`SELECT * FROM Paper, Researcher, Citation, University
	    WHERE Paper.author CROWDJOIN Researcher.name AND
	          Paper.title CROWDJOIN Citation.title AND
	          Researcher.affiliation CROWDJOIN University.name;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("WithTracing(true) produced no Result.Trace")
	}
	spans := res.Trace.Spans

	byID := map[int]cdb.Span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == -1 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p.ID >= s.ID {
			t.Fatalf("span %d (%s) begins before its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Start < p.Start {
			t.Fatalf("span %d (%s) starts at %dµs before parent %d at %dµs", s.ID, s.Name, s.Start, p.ID, p.Start)
		}
	}

	roots := res.Trace.ByName(cdb.SpanQuery)
	if len(roots) != 1 {
		t.Fatalf("got %d query spans, want 1", len(roots))
	}
	root := roots[0]
	if root.Parent != -1 {
		t.Fatalf("query span has parent %d, want -1", root.Parent)
	}
	if root.Query == "" {
		t.Fatal("query span is missing the statement text")
	}
	if n := len(res.Trace.ByName(cdb.SpanParse)); n != 1 {
		t.Fatalf("got %d parse spans, want 1", n)
	}
	plans := res.Trace.ByName(cdb.SpanPlan)
	if len(plans) != 1 {
		t.Fatalf("got %d plan spans, want 1", len(plans))
	}
	if plans[0].Parent != root.ID {
		t.Fatalf("plan span parented by %d, want query %d", plans[0].Parent, root.ID)
	}
	if plans[0].Edges == 0 {
		t.Fatal("plan span reports zero candidate edges")
	}

	rounds := res.Trace.ByName(cdb.SpanRound)
	if len(rounds) != res.Stats.Rounds {
		t.Fatalf("got %d round spans, want Stats.Rounds=%d", len(rounds), res.Stats.Rounds)
	}
	tasks, asks := 0, 0
	for i, r := range rounds {
		if r.Parent != root.ID {
			t.Fatalf("round span %d parented by %d, want query %d", r.ID, r.Parent, root.ID)
		}
		if r.Round != i+1 {
			t.Fatalf("round spans out of order: got round=%d at position %d", r.Round, i)
		}
		if r.Blue+r.Red != r.Tasks {
			t.Fatalf("round %d: blue(%d)+red(%d) != tasks(%d)", r.Round, r.Blue, r.Red, r.Tasks)
		}
		tasks += r.Tasks
		asks += r.Asks
	}
	if tasks != res.Stats.Tasks {
		t.Fatalf("round task counts sum to %d, want Stats.Tasks=%d", tasks, res.Stats.Tasks)
	}
	if asks != res.Stats.Assignments {
		t.Fatalf("round ask counts sum to %d, want Stats.Assignments=%d", asks, res.Stats.Assignments)
	}
	for _, name := range []string{cdb.SpanIssue, cdb.SpanColor} {
		got := res.Trace.ByName(name)
		if len(got) != len(rounds) {
			t.Fatalf("got %d %s spans, want one per round (%d)", len(got), name, len(rounds))
		}
		for _, s := range got {
			if byID[s.Parent].Name != cdb.SpanRound {
				t.Fatalf("%s span %d parented by %q, want a round span", name, s.ID, byID[s.Parent].Name)
			}
		}
	}

	// The JSONL rendering must round-trip: one valid JSON object per
	// span.
	var buf bytes.Buffer
	jw := cdb.NewJSONLWriter(&buf)
	for _, s := range spans {
		jw.ObserveSpan(s)
	}
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(spans) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), len(spans))
	}
	for i, line := range lines {
		var s cdb.Span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if s.ID != spans[i].ID || s.Name != spans[i].Name {
			t.Fatalf("line %d decodes to span %d/%s, want %d/%s", i, s.ID, s.Name, spans[i].ID, spans[i].Name)
		}
	}
}

// TestTracingOffByDefault pins the zero-overhead contract at the API
// boundary: without WithObserver/WithTracing the Result carries no
// trace.
func TestTracingOffByDefault(t *testing.T) {
	db := cdb.Open(
		cdb.WithDataset("example", 0, 1),
		cdb.WithPerfectWorkers(30),
	)
	res, err := db.Exec(`SELECT * FROM Paper, Researcher
	    WHERE Paper.author CROWDJOIN Researcher.name;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("tracing off, but Result.Trace is set")
	}
}

// TestMetricsSummaryListsConflictCounters: the scheduler's conflict-test
// counters reach the rendering `cdbsh \metrics` prints, next to the
// other latency counters, and a multi-join query moves both.
func TestMetricsSummaryListsConflictCounters(t *testing.T) {
	db := cdb.Open(cdb.WithDataset("example", 0, 1), cdb.WithPerfectWorkers(30), cdb.WithSeed(7))
	if _, err := db.Exec(`SELECT Researcher.name, Citation.number
		FROM Paper, Researcher, Citation
		WHERE Paper.author CROWDJOIN Researcher.name AND
		      Paper.title CROWDJOIN Citation.title;`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdb.WriteMetricsSummary(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	at := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "cdb_latency_batches_total") {
			at = i
		}
	}
	if at < 0 || at+2 >= len(lines) {
		t.Fatalf("no cdb_latency_batches_total line in:\n%s", buf.String())
	}
	for i, name := range []string{"cdb_latency_conflict_tests_total", "cdb_latency_conflict_walk_steps_total"} {
		fields := strings.Fields(lines[at+1+i])
		if len(fields) != 2 || fields[0] != name {
			t.Fatalf("line after the batch counter = %q, want %s", lines[at+1+i], name)
		}
		if n, err := strconv.Atoi(fields[1]); err != nil || n <= 0 {
			t.Fatalf("%s = %q, want a positive count", name, fields[1])
		}
	}
}

// TestMetricsSummaryListsSimJoin: the sim-join layer shows up in the
// `cdbsh \metrics` rendering as a duration histogram next to its
// counters, so pairs/touched is readable from the running system.
func TestMetricsSummaryListsSimJoin(t *testing.T) {
	db := cdb.Open(cdb.WithDataset("example", 0, 1), cdb.WithPerfectWorkers(30), cdb.WithSeed(7))
	if _, err := db.Exec(`SELECT * FROM Researcher, University
		WHERE Researcher.affiliation CROWDJOIN University.name;`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdb.WriteMetricsSummary(&buf); err != nil {
		t.Fatal(err)
	}
	value := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			value[f[0]] = f[1]
		}
	}
	touched, _ := strconv.Atoi(value["cdb_sim_join_touched_total"])
	pairs, _ := strconv.Atoi(value["cdb_sim_join_pairs_total"])
	if pairs <= 0 || touched < pairs {
		t.Errorf("touched = %q, pairs = %q; want 0 < pairs <= touched", value["cdb_sim_join_touched_total"], value["cdb_sim_join_pairs_total"])
	}
	if !strings.HasPrefix(value["cdb_sim_join_seconds"], "count=") {
		t.Errorf("no cdb_sim_join_seconds histogram line in:\n%s", buf.String())
	}
}

// TestMetricsSummaryListsBuildAndRescore: graph build and cost rescore
// are duration histograms in the `cdbsh \metrics` rendering, and the
// bundle-term counter sits beside the scored-edges histogram so edges ÷
// terms — how many edges shared each hypothetical cut — can be read from
// the running system.
func TestMetricsSummaryListsBuildAndRescore(t *testing.T) {
	db := cdb.Open(cdb.WithDataset("example", 0, 1), cdb.WithPerfectWorkers(30), cdb.WithSeed(7))
	if _, err := db.Exec(`SELECT Researcher.name, Citation.number
		FROM Paper, Researcher, Citation
		WHERE Paper.author CROWDJOIN Researcher.name AND
		      Paper.title CROWDJOIN Citation.title;`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdb.WriteMetricsSummary(&buf); err != nil {
		t.Fatal(err)
	}
	value := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			value[f[0]] = f[1]
		}
	}
	if n, _ := strconv.Atoi(value["cdb_cost_bundle_terms_total"]); n <= 0 {
		t.Errorf("cdb_cost_bundle_terms_total = %q, want a positive count", value["cdb_cost_bundle_terms_total"])
	}
	for _, name := range []string{"cdb_exec_graph_build_seconds", "cdb_cost_rescore_seconds", "cdb_cost_scored_edges_per_rescore"} {
		if !strings.HasPrefix(value[name], "count=") {
			t.Errorf("no %s histogram line in:\n%s", name, buf.String())
		}
	}
}
