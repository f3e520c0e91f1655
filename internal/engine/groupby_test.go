package engine

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/exec"
	"cdb/internal/stats"
)

// entityOracle says two values match iff they name the same entity.
type entityOracle func(string) string

func (o entityOracle) JoinMatch(_, _, _, _, l, r string) bool { return o(l) == o(r) }
func (o entityOracle) SelMatch(_, _, v, c string) bool        { return o(v) == o(c) }

// groupValues groups values, the answer's one column T.v, as a GROUP BY
// T.v does, over a perfect crowd of n workers; it returns the grouped
// rows (value, group_count) and the report the grouping charged.
func groupValues(t *testing.T, values []string, same entityOracle, n int, seed uint64) ([][]string, *exec.Report) {
	t.Helper()
	acct := exec.NewAccount(math.MaxInt, exec.Reliability{})
	ans := &Answer{Columns: []string{"T.v"}, Report: &exec.Report{Account: acct}}
	for _, v := range values {
		ans.Rows = append(ans.Rows, []string{v})
	}
	req := &SelectRequest{
		Source: Source{Oracle: same},
		Stmt:   &cql.Select{GroupBy: &cql.ColRef{Table: "T", Column: "v"}},
	}
	opts := exec.Options{Pool: crowd.NewPerfectPool(n, stats.NewRNG(seed)), Redundancy: 5, Account: acct}
	if err := req.groupBy(context.Background(), ans, 0, opts); err != nil {
		t.Fatal(err)
	}
	if got := ans.Columns; len(got) != 2 || got[1] != "group_count" {
		t.Fatalf("columns = %v", got)
	}
	return ans.Rows, ans.Report
}

func TestGroupByClustersVariants(t *testing.T) {
	values := []string{
		"University of Wisconsin", "Univ. of Wisconsin", "university of wisconsin",
		"University of Michigan", "Univ. of Michigan",
		"Tsinghua University",
	}
	entity := func(v string) string {
		v = strings.ToLower(v)
		switch {
		case strings.Contains(v, "wisconsin"):
			return "wisc"
		case strings.Contains(v, "michigan"):
			return "mich"
		default:
			return "tsinghua"
		}
	}
	rows, rep := groupValues(t, values, entity, 10, 1)
	want := map[string]int{"wisc": 3, "mich": 2, "tsinghua": 1}
	if len(rows) != len(want) {
		t.Fatalf("groups = %v, want 3 entities", rows)
	}
	// Three groups whose sizes are their entities' sizes, one per
	// entity: no group mixes entities.
	for _, r := range rows {
		e := entity(r[0])
		if n, _ := strconv.Atoi(r[1]); n != want[e] {
			t.Fatalf("group %v: entity %s has %d values", r, e, want[e])
		}
		delete(want, e)
	}
	if rep.Metrics.Tasks == 0 {
		t.Fatal("grouping asked no tasks")
	}
}

func TestGroupByTransitivitySaves(t *testing.T) {
	// Five variants of one entity: full pairwise would be 10 tasks;
	// transitivity needs at most 4 merges (plus unlucky waves).
	values := []string{"acme corp", "acme corp.", "Acme Corp", "ACME CORP", "acme  corp"}
	rows, rep := groupValues(t, values, func(string) string { return "acme" }, 10, 2)
	if len(rows) != 1 || rows[0][1] != "5" {
		t.Fatalf("groups = %v, want one cluster", rows)
	}
	if rep.Metrics.Tasks >= 10 {
		t.Fatalf("transitivity saved nothing: %d tasks", rep.Metrics.Tasks)
	}
}

func TestGroupBySingletons(t *testing.T) {
	rows, rep := groupValues(t, []string{"alpha", "beta", "gamma"}, func(v string) string { return v }, 5, 3)
	if len(rows) != 3 {
		t.Fatalf("groups = %v", rows)
	}
	// All pairs are below epsilon: free.
	if rep.Metrics.Tasks != 0 {
		t.Fatalf("dissimilar values should not be asked: %d tasks", rep.Metrics.Tasks)
	}
}
