package engine

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"cdb/internal/crowd"
	"cdb/internal/exec"
	"cdb/internal/ledger"
	"cdb/internal/obs"
)

// Coalescer metrics (process-wide, across all engines).
var (
	mCoalTasks  = obs.Default.Counter("cdb_engine_tasks_total")
	mCoalShared = obs.Default.Counter("cdb_engine_tasks_shared_total")
	mCoalSaved  = obs.Default.Counter("cdb_engine_assignments_saved_total")
)

// coalescer is the engine's shared serving layer for crowd tasks: it
// implements exec.TaskResolver for every query the engine admits.
// Identical tasks — same canonical content key, same redundancy — are
// dispatched to the (simulated) platform once: the first query to ask
// owns the HIT, concurrent askers attach to it, and later askers are
// served from a bounded LRU verdict cache that survives across
// queries.
//
// Determinism is the load-bearing property. A task's answers are a
// pure function of (engine seed, task key, redundancy): workers are
// drawn and judged from a hash-derived RNG stream, never from the
// pool's stateful arrival RNG. Scheduling therefore cannot leak into
// verdicts — a query returns bit-identical rows whether it ran alone,
// raced seven others, or hit the cache, which is what makes coalescing
// safe to switch on.
//
// Each verdict charges the full redundancy k to every subscribing
// query (virtual chargeback): per-query Stats are what they would have
// been without sharing, and the engine's own counters report the real
// platform work and the savings.
type coalescer struct {
	seed    uint64
	pool    *crowd.Pool
	journal Journal // nil without a ledger

	mu       sync.Mutex
	inflight map[string]*flight
	cache    *lruCache[exec.TaskVerdict]

	resolved  atomic.Int64 // tasks resolved
	issued    atomic.Int64 // assignments actually drawn from the crowd
	saved     atomic.Int64 // assignments avoided by sharing
	coalesced atomic.Int64 // tasks attached to an in-flight HIT
	cached    atomic.Int64 // tasks served from the verdict cache
	ledgerHit atomic.Int64 // tasks served from replayed ledger verdicts
}

// flight is one in-flight HIT: the owner fills verdict and closes
// done; subscribers wait and copy.
type flight struct {
	done    chan struct{}
	verdict exec.TaskVerdict
}

func newCoalescer(seed uint64, pool *crowd.Pool, cacheSize int, journal Journal) *coalescer {
	return &coalescer{
		seed:     seed,
		pool:     pool,
		journal:  journal,
		inflight: make(map[string]*flight),
		cache:    newVerdictLRU(cacheSize),
	}
}

// Resolve implements exec.TaskResolver. Safe for concurrent use by
// many queries; returns a verdict for every requested edge.
func (c *coalescer) Resolve(ctx context.Context, reqs []exec.TaskRequest) (map[int]exec.TaskVerdict, error) {
	out := make(map[int]exec.TaskVerdict, len(reqs))
	for _, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := c.resolve(ctx, req)
		if err != nil {
			return nil, err
		}
		out[req.Edge] = v
		mCoalTasks.Inc()
		c.resolved.Add(1)
	}
	return out, nil
}

func (c *coalescer) resolve(ctx context.Context, req exec.TaskRequest) (exec.TaskVerdict, error) {
	// Redundancy is part of the sharing identity: a k=3 verdict must
	// not answer a k=5 question.
	key := strconv.Itoa(req.K) + "\x1f" + req.Key

	c.mu.Lock()
	if v, ok := c.cache.get(key); ok {
		// A replayed ledger verdict answers its first use with the flag
		// set, then downgrades to an ordinary cache entry. That keeps the
		// wire-visible Stats of a warm resume bit-identical to an
		// uninterrupted run: a replayed crowd verdict's first use mirrors
		// the owner resolve (Cached=false), later uses mirror cache hits.
		// Ledger provenance is reported out of band (Report.LedgerTasks,
		// engine counters), never through the sharing telemetry.
		if v.Ledger {
			used := v
			used.Ledger = false
			c.cache.put(key, used)
		}
		c.mu.Unlock()
		return c.served(v), nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return exec.TaskVerdict{}, ctx.Err()
		}
		v := fl.verdict
		v.Coalesced = true
		c.coalesced.Add(1)
		c.saved.Add(int64(v.Assignments))
		mCoalShared.Inc()
		mCoalSaved.Add(int64(v.Assignments))
		return v, nil
	}
	// Second-level lookup: the durable ledger may hold a verdict the
	// LRU evicted (or never admitted). Serving it re-caches it and
	// charges the crowd nothing — the work was paid before a restart.
	if c.journal != nil {
		if rec, ok := c.journal.Verdict(key); ok {
			v := exec.TaskVerdict{
				Value:       rec.Value,
				Confidence:  rec.Confidence,
				Assignments: rec.Assignments,
				Ledger:      true,
			}
			// Re-cache already downgraded: this lookup IS the first use.
			used := v
			used.Ledger = false
			c.cache.put(key, used)
			c.mu.Unlock()
			return c.served(v), nil
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	fl.verdict = c.answer(req)
	c.issued.Add(int64(fl.verdict.Assignments))
	// Write-ahead: the verdict becomes durable before any subscriber
	// can observe it, so under -fsync always an acknowledged verdict
	// survives even kill -9.
	if c.journal != nil {
		c.journal.AppendVerdict(ledger.Verdict{
			Key:         key,
			Value:       fl.verdict.Value,
			Confidence:  fl.verdict.Confidence,
			Assignments: fl.verdict.Assignments,
		})
	}

	c.mu.Lock()
	c.cache.put(key, fl.verdict)
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
	return fl.verdict, nil
}

// served accounts for a verdict answered without crowd work, from the
// verdict cache or the ledger, and returns it as the asking query sees
// it. A replayed ledger verdict counts as a ledger hit, not as a cache
// hit (see resolve).
func (c *coalescer) served(v exec.TaskVerdict) exec.TaskVerdict {
	if v.Ledger {
		c.ledgerHit.Add(1)
		mLedgerHits.Inc()
	} else {
		v.Cached = true
		c.cached.Add(1)
	}
	c.saved.Add(int64(v.Assignments))
	mCoalShared.Inc()
	mCoalSaved.Add(int64(v.Assignments))
	return v
}

// answer simulates one HIT deterministically through the shared
// content-pure verdict function (crowd.PureVerdict): k distinct
// workers drawn by a partial Fisher–Yates over the pool, each judging
// correctly with its latent accuracy, all randomness from a
// content-keyed hash RNG. The pool's own RNG streams are never
// touched, so engine queries do not perturb (and are not perturbed by)
// DB.Exec traffic.
func (c *coalescer) answer(req exec.TaskRequest) exec.TaskVerdict {
	value, conf, asks := crowd.PureVerdict(c.seed, c.pool, req.Key, req.Truth, req.Prior, req.K)
	return exec.TaskVerdict{Value: value, Confidence: conf, Assignments: asks}
}

// lruCache is a bounded string-keyed map with least-recently-used
// eviction. Not synchronized — callers hold their own lock.
type lruCache[V any] struct {
	cap   int
	items map[string]*lruNode[V]
	head  *lruNode[V] // most recently used
	tail  *lruNode[V] // least recently used
}

type lruNode[V any] struct {
	key        string
	val        V
	prev, next *lruNode[V]
}

// newVerdictLRU sizes the shared task-verdict cache (default 4096).
func newVerdictLRU(capacity int) *lruCache[exec.TaskVerdict] {
	if capacity <= 0 {
		capacity = 4096
	}
	return newLRU[exec.TaskVerdict](capacity)
}

func newLRU[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{cap: capacity, items: make(map[string]*lruNode[V], capacity)}
}

func (l *lruCache[V]) get(key string) (V, bool) {
	n, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveToFront(n)
	return n.val, true
}

func (l *lruCache[V]) put(key string, v V) {
	if n, ok := l.items[key]; ok {
		n.val = v
		l.moveToFront(n)
		return
	}
	n := &lruNode[V]{key: key, val: v}
	l.items[key] = n
	l.pushFront(n)
	if len(l.items) > l.cap {
		evict := l.tail
		l.unlink(evict)
		delete(l.items, evict.key)
	}
}

func (l *lruCache[V]) pushFront(n *lruNode[V]) {
	n.prev, n.next = nil, l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lruCache[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lruCache[V]) moveToFront(n *lruNode[V]) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

func (l *lruCache[V]) len() int { return len(l.items) }
