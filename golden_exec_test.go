package cdb

import (
	"fmt"
	"strings"
	"testing"

	"cdb/internal/dataset"
	"cdb/internal/obs"
)

// TestExecGolden pins what DB.Exec returns for a fixed statement list
// run sequentially through one DB per dataset: answers, tasks, rounds
// and assignments per statement. The numbers depend on how far the
// crowd's random stream has advanced, so a reordered or extra draw
// fails here in milliseconds instead of surfacing as changed benchmark
// counts. The default pins were generated at the commit before the
// SELECT pipeline was unified, the planner pins when the planner
// stopped installing its own crowd.
func TestExecGolden(t *testing.T) {
	labels := []string{"2J", "2J1S", "3J", "3J2S"}
	cases := []struct {
		name string
		cfg  Config
		want map[string]string // dataset → "rows/tasks/rounds/assignments" per label
	}{
		{
			name: "default",
			cfg:  Config{Seed: 1, DatasetSeed: 1},
			want: map[string]string{
				"paper": "101/352/2/1760 32/149/3/745 268/1216/4/6080 9/152/6/760",
				"award": "703/1796/3/8980 135/742/4/3710 1278/4111/6/20555 0/0/0/0",
			},
		},
		{
			// The planned order draws nothing; the verdicts come from the
			// DB's own pool.
			name: "planner",
			cfg:  Config{Seed: 1, DatasetSeed: 1, Planner: true},
			want: map[string]string{
				"paper": "102/369/2/1845 32/137/3/685 246/1127/3/5635 20/170/5/850",
			},
		},
		{
			// The default's answers: the fault-free transport takes one
			// seed per statement from the DB's stream and leaves the
			// pool's stream alone.
			name: "reliability",
			cfg:  Config{Seed: 1, DatasetSeed: 1, Reliability: &ReliabilityPolicy{}},
			want: map[string]string{
				"paper": "101/352/2/1760 32/149/3/745 268/1216/4/6080 9/152/6/760",
			},
		},
	}
	for _, tc := range cases {
		for ds, want := range tc.want {
			t.Run(tc.name+"/"+ds, func(t *testing.T) {
				cfg := tc.cfg
				cfg.Dataset, cfg.DatasetScale = ds, 0.12
				db, err := OpenConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, label := range labels {
					res, err := db.Exec(dataset.Queries(ds)[label])
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got = append(got, fmt.Sprintf("%d/%d/%d/%d",
						len(res.Rows), res.Stats.Tasks, res.Stats.Rounds, res.Stats.Assignments))
				}
				if g := strings.Join(got, " "); g != want {
					t.Errorf("rows/tasks/rounds/assignments for %v:\n got %q\nwant %q", labels, g, want)
				}
			})
		}
	}
}

// TestRoundsDoNotBuildPartition: on tree-shaped plans neither the packed
// scheduler nor the rescore derives the edge-component partition, so a
// cold query of every benchmark shape leaves the rebuild counter where
// it was. A reader creeping back into the round loop would pay an O(E)
// flood per round; this catches it without a timing.
func TestRoundsDoNotBuildPartition(t *testing.T) {
	rebuilds := obs.Default.Counter("cdb_graph_component_rebuild_full_total")
	db, err := OpenConfig(Config{Seed: 1, Dataset: "paper", DatasetSeed: 1, DatasetScale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	before := rebuilds.Value()
	queries := dataset.Queries("paper")
	if len(queries) != 5 {
		t.Fatalf("%d paper query shapes, want 5", len(queries))
	}
	for label, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Stats.Rounds == 0 {
			t.Fatalf("%s: ran no round", label)
		}
	}
	if got := rebuilds.Value() - before; got != 0 {
		t.Errorf("%d partition rebuilds across %d cold queries, want 0", got, len(queries))
	}
}
