package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// goldenExperiments are the experiments TestGoldenTables pins: all of
// cdbench but fig20 and fig21, which force scale 0.3 and would take the
// test from seconds to minutes, and table5, which is nothing but timings.
var goldenExperiments = []string{"fig1", "fig8", "fig11", "fig14", "fig17", "fig18", "fig22", "fig23", "chaos", "plan"}

// planP95 is the planning-time figure of the plan table's title, the
// one wall-clock number these experiments print.
var planP95 = regexp.MustCompile(`planning p95 \d+µs`)

// TestGoldenTables renders the experiments cdbench -scale 0.05 -reps 1
// prints, for both datasets, with the planning-time figures masked, and
// compares them with testdata/<dataset>.golden. The crowd is simulated
// and seeded, so every other number is exact: a table that moves is a
// change to what the pipeline computes. Run with -update to rewrite the
// files after a deliberate change.
func TestGoldenTables(t *testing.T) {
	if raceEnabled {
		t.Skip("the grids take over a minute under the race detector, and they run on one goroutine")
	}
	for _, ds := range []string{"paper", "award"} {
		t.Run(ds, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Dataset, cfg.Scale, cfg.Reps = ds, 0.05, 1
			var buf bytes.Buffer
			for _, id := range goldenExperiments {
				tables, err := Registry[id](cfg)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				for _, tb := range tables {
					maskTimings(tb)
					tb.Render(&buf)
				}
			}
			path := filepath.Join("testdata", ds+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			gotLines, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
				var got, exp string
				if i < len(gotLines) {
					got = gotLines[i]
				}
				if i < len(wantLines) {
					exp = wantLines[i]
				}
				if got != exp {
					t.Errorf("%s:%d:\n got %q\nwant %q", path, i+1, got, exp)
				}
			}
		})
	}
}

// maskTimings zeroes the plan table's planning p95, in its title and
// in its plan_p95_us column.
func maskTimings(tb *Table) {
	tb.Title = planP95.ReplaceAllString(tb.Title, "planning p95 0µs")
	for i, name := range tb.ValueNames {
		if name != "plan_p95_us" {
			continue
		}
		for _, r := range tb.Rows {
			r.Values[i] = 0
		}
	}
}
