package exec_test

import (
	"strings"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/stats"
)

// TestStrategyTable pins that every competitor name builds a strategy
// over a bound plan in any letter case, that only MinCut draws from the
// caller's stream, and that an unknown name — "cdb" among them, the
// order of a run that configures none — is an error listing exactly
// the table.
func TestStrategyTable(t *testing.T) {
	names := []string{"mincut", "crowddb", "qurk", "deco", "opttree", "trans", "acd"}
	d := dataset.RunningExample()
	st, err := cql.Parse(dataset.RunningExampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for _, spelling := range []string{name, strings.ToUpper(name)} {
			build, err := exec.StrategyByName(spelling)
			if err != nil {
				t.Fatalf("StrategyByName(%q): %v", spelling, err)
			}
			rng, untouched := stats.NewRNG(5), stats.NewRNG(5)
			if s := build(p, 4, rng); s == nil {
				t.Errorf("%s built a nil strategy", spelling)
			}
			if drew := rng.Uint64() != untouched.Uint64(); drew != (name == "mincut") {
				t.Errorf("%s drew from the stream = %v", spelling, drew)
			}
		}
	}

	for _, bad := range []string{"nope", "cdb"} {
		_, err = exec.StrategyByName(bad)
		want := `unknown strategy "` + bad + `" (want ` + strings.Join(names, ", ") + `)`
		if err == nil || err.Error() != want {
			t.Errorf("StrategyByName(%s) error = %v, want %s", bad, err, want)
		}
	}
}
