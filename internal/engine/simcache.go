package engine

import (
	"sync"
	"sync/atomic"

	"cdb/internal/obs"
	"cdb/internal/sim"
	"cdb/internal/stats"
)

// Similarity-cache metrics (process-wide, across all engines).
var (
	mJoinComputed = obs.Default.Counter("cdb_engine_joins_computed_total")
	mJoinShared   = obs.Default.Counter("cdb_engine_joins_shared_total")
)

// joinCache shares similarity-join work across concurrent queries.
// Planning a CROWDJOIN runs a similarity join over the two column
// extents — the most expensive CPU step of admission — and
// overlapping queries over the same tables repeat it verbatim.
// The cache keys joins by (sim func, epsilon, column contents) with
// single-flight semantics: the first query computes, concurrent
// duplicates wait for that result, later ones reuse it directly.
//
// Entries hold the result pairs plus the key columns (for collision
// verification) for the engine's lifetime; the universe of table
// pairs is small, so no eviction is needed.
type joinCache struct {
	mu      sync.Mutex
	entries map[joinKey]*joinEntry

	computed atomic.Int64 // joins actually executed
	shared   atomic.Int64 // joins served from the cache
}

type joinKey struct {
	f         sim.Func
	eps       float64
	leftHash  uint64
	rightHash uint64
	leftN     int
	rightN    int
}

type joinEntry struct {
	done        chan struct{}
	left, right []string // retained to verify against hash collisions
	pairs       []sim.Pair
}

func newJoinCache() *joinCache {
	return &joinCache{entries: make(map[joinKey]*joinEntry)}
}

// Join matches exec.PlanConfig.Joiner. The returned slice is shared
// between queries; BuildPlan only iterates it.
func (c *joinCache) Join(f sim.Func, left, right []string, eps float64) []sim.Pair {
	key := joinKey{
		f: f, eps: eps,
		leftHash: hashColumn(left), rightHash: hashColumn(right),
		leftN: len(left), rightN: len(right),
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		if sameStrings(e.left, left) && sameStrings(e.right, right) {
			c.shared.Add(1)
			mJoinShared.Inc()
			return e.pairs
		}
		// Hash collision (distinct contents, equal key): compute
		// privately rather than poison the cache.
		return sim.Join(f, left, right, eps)
	}
	e := &joinEntry{done: make(chan struct{}), left: left, right: right}
	c.entries[key] = e
	c.mu.Unlock()

	e.pairs = sim.Join(f, left, right, eps)
	c.computed.Add(1)
	mJoinComputed.Inc()
	close(e.done)
	return e.pairs
}

// hashColumn folds a column's values into one order-sensitive 64-bit
// hash (FNV-style combine of per-value FNV-1a hashes).
func hashColumn(vals []string) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h ^= stats.HashString(v)
		h *= 1099511628211
	}
	return h
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
