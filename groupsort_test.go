package cdb

import (
	"context"
	"strconv"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/exec"
	"cdb/internal/stats"
)

// sortBy ranks values as ORDER BY does: exec.OrderPlan's comparisons
// asked in exec.PivotOrder's rounds, k workers of pool each. It returns
// the permutation (indices into values, first first) and the
// comparisons (tasks) and rounds the run took.
func sortBy(t *testing.T, values []string, pool *crowd.Pool, k int) (perm []int, tasks, rounds int) {
	t.Helper()
	p, order := exec.OrderPlan(cql.ColRef{Table: "T", Column: "v"}, values)
	rep, err := exec.Run(context.Background(), p, exec.Options{Strategy: order, Pool: pool, Redundancy: k})
	if err != nil {
		t.Fatal(err)
	}
	return order.Perm(p.G), rep.Metrics.Tasks, rep.Metrics.Rounds
}

func TestSortByPerfectWorkers(t *testing.T) {
	values := []string{"30", "5", "12", "7", "100", "1", "50"}
	perm, tasks, rounds := sortBy(t, values, crowd.NewPerfectPool(10, stats.NewRNG(4)), 5)
	got := make([]string, len(perm))
	for i, idx := range perm {
		got[i] = values[idx]
	}
	want := []string{"1", "5", "7", "12", "30", "50", "100"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", got, want)
		}
	}
	// The quicksort's comparisons, one task each, and a round per level
	// of its recursion, every part of a level asked at once.
	const wantTasks, wantRounds = 15, 4
	if tasks != wantTasks || rounds != wantRounds {
		t.Fatalf("comparisons, rounds = %d, %d, want %d, %d", tasks, rounds, wantTasks, wantRounds)
	}
}

func TestSortByNoisyWorkersMostlyOrdered(t *testing.T) {
	pool := crowd.NewPool(30, 0.9, 0.05, stats.NewRNG(7))
	var values []string
	for i := 0; i < 16; i++ {
		values = append(values, strconv.Itoa(i))
	}
	perm, _, _ := sortBy(t, values, pool, 5)
	// Count pairwise inversions; noisy workers may cause a few, but the
	// order must be far better than random (random ≈ 60 of 120).
	inv := 0
	for i := 0; i < len(perm); i++ {
		for j := i + 1; j < len(perm); j++ {
			if perm[i] > perm[j] {
				inv++
			}
		}
	}
	if inv > 20 {
		t.Fatalf("too many inversions: %d", inv)
	}
}

func TestSortByEmptyAndSingle(t *testing.T) {
	perm, tasks, _ := sortBy(t, nil, crowd.NewPerfectPool(3, stats.NewRNG(8)), 5)
	if len(perm) != 0 || tasks != 0 {
		t.Fatalf("empty sort = %v, %d tasks", perm, tasks)
	}
	perm, tasks, _ = sortBy(t, []string{"x"}, crowd.NewPerfectPool(3, stats.NewRNG(9)), 5)
	if len(perm) != 1 || tasks != 0 {
		t.Fatalf("single sort = %v, %d tasks", perm, tasks)
	}
	// Equal values are one value: no comparison, input order kept.
	perm, tasks, _ = sortBy(t, []string{"x", "x", "x"}, crowd.NewPerfectPool(3, stats.NewRNG(9)), 5)
	if len(perm) != 3 || perm[0] != 0 || perm[1] != 1 || perm[2] != 2 || tasks != 0 {
		t.Fatalf("equal values sort = %v, %d tasks", perm, tasks)
	}
}
