package exec_test

import (
	"reflect"
	"strings"
	"testing"

	"cdb"
	"cdb/internal/cql"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/stats"
)

// TestStrategyTable pins that the strategy table and the public
// cdb.Strategy* constants name the same set, that every name builds a
// strategy over a bound plan in any letter case, that only MinCut draws
// from the caller's stream, and that an unknown name's error lists
// exactly the table.
func TestStrategyTable(t *testing.T) {
	public := []string{cdb.StrategyCDB, cdb.StrategyMinCut, cdb.StrategyCrowdDB, cdb.StrategyQurk,
		cdb.StrategyDeco, cdb.StrategyOptTree, cdb.StrategyTrans, cdb.StrategyACD}
	if got := exec.StrategyNames(); !reflect.DeepEqual(got, public) {
		t.Fatalf("StrategyNames() = %v, want the cdb.Strategy* constants %v", got, public)
	}

	d := dataset.RunningExample()
	st, err := cql.Parse(dataset.RunningExampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.BuildPlan(st.(*cql.Select), d.Catalog, d.Oracle, exec.DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range public {
		for _, spelling := range []string{name, strings.ToUpper(name)} {
			newStrategy, err := exec.StrategyByName(spelling)
			if err != nil {
				t.Fatalf("StrategyByName(%q): %v", spelling, err)
			}
			rng, untouched := stats.NewRNG(5), stats.NewRNG(5)
			if s := newStrategy(p, 4, rng); s == nil {
				t.Errorf("%s built a nil strategy", spelling)
			}
			if drew := rng.Uint64() != untouched.Uint64(); drew != (name == cdb.StrategyMinCut) {
				t.Errorf("%s drew from the stream = %v", spelling, drew)
			}
		}
	}

	_, err = exec.StrategyByName("nope")
	want := `unknown strategy "nope" (want ` + strings.Join(public, ", ") + `)`
	if err == nil || err.Error() != want {
		t.Errorf("StrategyByName(nope) error = %v, want %s", err, want)
	}
}
