package cdb

import (
	"strconv"
	"testing"

	"cdb/internal/crowd"
	"cdb/internal/stats"
)

func lessNum(a, b string) bool {
	x, _ := strconv.Atoi(a)
	y, _ := strconv.Atoi(b)
	return x < y
}

func TestSortByPerfectWorkers(t *testing.T) {
	values := []string{"30", "5", "12", "7", "100", "1", "50"}
	perm, tasks, rounds := sortBy(values, lessNum, crowd.NewPerfectPool(10, stats.NewRNG(4)), 5)
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
	// Merge sort task bound.
	if tasks > 20 {
		t.Fatalf("too many comparisons: %d", tasks)
	}
	// ceil(log2 7) = 3 merge levels.
	if rounds != 3 {
		t.Fatalf("rounds = %d, want 3", rounds)
	}
}

func TestSortByNoisyWorkersMostlyOrdered(t *testing.T) {
	pool := crowd.NewPool(30, 0.9, 0.05, stats.NewRNG(7))
	var values []string
	for i := 0; i < 16; i++ {
		values = append(values, strconv.Itoa(i))
	}
	perm, _, _ := sortBy(values, lessNum, pool, 5)
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
	less := func(a, b string) bool { return a < b }
	perm, tasks, _ := sortBy(nil, less, crowd.NewPerfectPool(3, stats.NewRNG(8)), 5)
	if len(perm) != 0 || tasks != 0 {
		t.Fatalf("empty sort = %v, %d tasks", perm, tasks)
	}
	perm, tasks, _ = sortBy([]string{"x"}, less, crowd.NewPerfectPool(3, stats.NewRNG(9)), 5)
	if len(perm) != 1 || tasks != 0 {
		t.Fatalf("single sort = %v, %d tasks", perm, tasks)
	}
}
