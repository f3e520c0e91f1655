package cdb

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestResultWireSchema pins the JSON wire schema of Result and Stats —
// the payloads cmd/cdbd serves and client/ decodes. A renamed or
// retyped field changes the serialized form and fails here: that is a
// breaking protocol change and must be made deliberately (run with
// -update and bump the API notes in DESIGN.md §12), not discovered by
// a remote client.
func TestResultWireSchema(t *testing.T) {
	// Every field populated with distinguishable values, including the
	// omitempty ones, so the golden file shows the complete schema.
	res := &Result{
		Columns: []string{"Paper.title", "Researcher.name"},
		Rows: [][]string{
			{"Crowdsourced Data Management", "Guoliang Li"},
			{"Truth Inference in Crowdsourcing", "Yudian Zheng"},
		},
		Message: "2 answers, 7 tasks, 3 rounds",
		Stats: Stats{
			Tasks:       7,
			Rounds:      3,
			Assignments: 35,
			HITs:        4,
			Dollars:     0.4,
			Precision:   0.98,
			Recall:      0.96,
			F1:          0.9699,

			Partial:         true,
			Reason:          "deadline",
			Lost:            1,
			Retried:         2,
			Hedged:          3,
			Late:            4,
			Duplicates:      5,
			RoundsTruncated: 1,

			Coalesced:   6,
			CachedTasks: 2,
		},
		Confidence: []float64{1, 0.875},
		RequestID:  "req-0123456789abcdef",
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "result_wire.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go test -run TestResultWireSchema -update` after a deliberate schema change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Result wire schema drifted from %s — this breaks remote clients.\ngot:\n%s\nwant:\n%s", path, got, want)
	}

	// The zero value must stay lean: omitempty fields absent, so
	// partial/sharing telemetry only appears when it fired.
	lean, err := json.Marshal(&Result{Message: "table created"})
	if err != nil {
		t.Fatal(err)
	}
	const wantLean = `{"message":"table created","stats":{"tasks":0,"rounds":0,"assignments":0,"hits":0,"dollars":0,"precision":0,"recall":0,"f1":0}}`
	if string(lean) != wantLean {
		t.Errorf("zero-value wire form drifted:\ngot  %s\nwant %s", lean, wantLean)
	}
}

// TestRoundUpdateWireSchema pins the streaming event payload the same
// way: one RoundUpdate per completed crowd round crosses the wire on
// POST /v1/query/stream.
func TestRoundUpdateWireSchema(t *testing.T) {
	u := RoundUpdate{
		Round:            2,
		Tasks:            5,
		Assignments:      25,
		Blue:             3,
		Red:              2,
		TasksTotal:       12,
		AssignmentsTotal: 60,
		Open:             9,
	}
	got, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"round":2,"tasks":5,"assignments":25,"blue":3,"red":2,"tasks_total":12,"assignments_total":60,"open":9}`
	if string(got) != want {
		t.Errorf("RoundUpdate wire schema drifted:\ngot  %s\nwant %s", got, want)
	}
}
