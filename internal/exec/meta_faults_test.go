package exec_test

import (
	"testing"

	"cdb"
)

// TestAsyncMetadataRecordsEveryPaidAnswer: under faults every answer
// the statement pays for is a row of the metadata store, the late ones
// to an earlier round's task included, so the store's assignments equal
// Stats.Assignments for a plain SELECT and for a GROUP BY. Both run
// more than one round, so stragglers cross a round boundary.
func TestAsyncMetadataRecordsEveryPaidAnswer(t *testing.T) {
	for _, c := range []struct{ name, query string }{
		{"select", `SELECT * FROM Paper, Researcher, University
			WHERE Paper.author CROWDJOIN Researcher.name AND Researcher.affiliation CROWDJOIN University.name;`},
		{"groupby", `SELECT Researcher.affiliation, Paper.title FROM Paper, Researcher
			WHERE Paper.author CROWDJOIN Researcher.name GROUP BY Researcher.affiliation;`},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := cdb.Open(cdb.WithDataset("paper", 0.12, 7), cdb.WithSeed(45), cdb.WithWorkers(30, 0.8, 0.1),
				cdb.WithMetadata(), cdb.WithFaults(cdb.FaultConfig{Seed: 3, StragglerRate: 0.5, DuplicateRate: 0.5}))
			res, err := db.Exec(c.query)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Late == 0 || st.Rounds < 2 {
				t.Fatalf("no late answer can outlive its round: %+v", st)
			}
			if got := db.Metadata().ComputeStats().Assignments; got != st.Assignments {
				t.Fatalf("recorded %d assignments, stats say %d", got, st.Assignments)
			}
		})
	}
}
