package engine

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

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
	return groupOver(t, values, same, crowd.NewPerfectPool(n, stats.NewRNG(seed)))
}

// groupOver is groupValues over pool.
func groupOver(t *testing.T, values []string, same entityOracle, pool *crowd.Pool) ([][]string, *exec.Report) {
	t.Helper()
	acct := exec.NewAccount(math.MaxInt, exec.Reliability{})
	ans := &Answer{Columns: []string{"T.v"}, Report: &exec.Report{Account: acct}}
	for _, v := range values {
		ans.Rows = append(ans.Rows, []string{v})
	}
	opts := exec.Options{Pool: pool, Redundancy: 5, Account: acct}
	if err := groupRequest(same).groupBy(context.Background(), ans, 0, opts); err != nil {
		t.Fatal(err)
	}
	if got := ans.Columns; len(got) != 2 || got[1] != "group_count" {
		t.Fatalf("columns = %v", got)
	}
	return ans.Rows, ans.Report
}

// groupRequest is a GROUP BY T.v over same.
func groupRequest(same entityOracle) *SelectRequest {
	return &SelectRequest{
		Source: Source{Oracle: same},
		Stmt:   &cql.Select{GroupBy: &cql.ColRef{Table: "T", Column: "v"}},
	}
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

// TestGroupByBindsValues groups 3 000 rows of 20 mutually dissimilar
// values: the bind holds the 20 values, not the rows, so no pair
// reaches ε and the grouping asks nothing. It measured 0.55 MB and
// 0.5–1.2 ms on a 2-core box (4–9 ms under -race); the bounds leave
// room for a loaded runner, and binding the rows would pass neither.
func TestGroupByBindsValues(t *testing.T) {
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliett",
		"kilo", "lima", "mike", "november", "oscar", "papa", "quebec", "romeo", "sierra", "tango"}
	r := stats.NewRNG(5)
	values := make([]string, 3000)
	for i := range values {
		values[i] = words[r.Intn(len(words))]
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	rows, rep := groupValues(t, values, func(v string) string { return v }, 5, 6)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	t.Logf("%d rows: %v, %d bytes", len(values), took, after.TotalAlloc-before.TotalAlloc)
	if len(rows) != len(words) || rep.Metrics.Tasks != 0 {
		t.Fatalf("%d groups after %d tasks, want %d groups and no task", len(rows), rep.Metrics.Tasks, len(words))
	}
	total := 0
	for _, row := range rows {
		n, _ := strconv.Atoi(row[1])
		total += n
	}
	if total != len(values) {
		t.Fatalf("group counts sum to %d rows, want %d", total, len(values))
	}
	if limit := 2 << 20; after.TotalAlloc-before.TotalAlloc > uint64(limit) {
		t.Fatalf("grouping allocated %d bytes, over %d", after.TotalAlloc-before.TotalAlloc, limit)
	}
	if limit := 100 * time.Millisecond; took > limit {
		t.Fatalf("grouping took %v, over %v", took, limit)
	}
}

// TestGroupByNeverSplitsAValue: under a noisy crowd (q = 0.6) the
// grouping may merge or separate variants wrongly, but the rows of one
// value are one vertex of the plan, so they always land in one group.
func TestGroupByNeverSplitsAValue(t *testing.T) {
	variants := []string{"acme corp", "Acme Corp.", "acme  corp", "ACME corporation", "beta inc", "Beta Inc.", "beta incorporated"}
	entity := func(v string) string { return strings.ToLower(v)[:4] }
	for seed := uint64(1); seed <= 8; seed++ {
		r := stats.NewRNG(seed)
		values := make([]string, 60)
		for i := range values {
			values[i] = variants[r.Intn(len(variants))]
		}
		acct := exec.NewAccount(math.MaxInt, exec.Reliability{})
		opts := exec.Options{Pool: crowd.NewPool(20, 0.6, 0.05, stats.NewRNG(seed+100)), Redundancy: 5, Account: acct}
		groups, err := groupRequest(entity).group(context.Background(), &exec.Report{Account: acct}, values, opts)
		if err != nil {
			t.Fatal(err)
		}
		if acct.Metrics.Tasks == 0 {
			t.Fatalf("seed %d: grouping asked no tasks", seed)
		}
		groupOf := map[string]int{}
		all := 0
		for g, members := range groups {
			for _, i := range members {
				v := values[i]
				if h, ok := groupOf[v]; ok && h != g {
					t.Fatalf("seed %d: rows of %q in groups %d and %d (%v)", seed, v, h, g, groups)
				}
				groupOf[v] = g
			}
			all += len(members)
		}
		if all != len(values) {
			t.Fatalf("seed %d: groups hold %d rows, want all %d", seed, all, len(values))
		}
	}
}
