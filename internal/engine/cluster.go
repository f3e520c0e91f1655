package engine

// Cluster support: everything a component-sharded cdbd fleet needs
// from the engine, with zero knowledge of rings, transports or peers
// (that lives in internal/cluster).
//
//   - SubmitShard executes a statement restricted to an owned subset of
//     its tuple-graph components; the Answer carries an exec.ShardInfo
//     sidecar (merge keys, owned truth counts) a coordinator merges.
//   - ComponentKeys derives the canonical component partition of a
//     statement, the routing key space.
//   - CacheDelta / ImportVerdicts replicate the verdict cache: the
//     coalescer logs every settled verdict it adds, peers pull (or are
//     pushed) the suffix since their last sequence number and insert
//     the entries Remote-flagged. Verdicts are a pure function of
//     (seed, key, redundancy), so replication needs no invalidation
//     and imports can never disagree with local resolution.
//   - Fingerprint detects misconfigured fleets: two engines replicate
//     or merge only when every verdict-determining input matches.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"cdb/internal/exec"
	"cdb/internal/obs"
)

var (
	mRemoteHit = obs.Default.Counter("cdb_engine_remote_hits_total")
	mImported  = obs.Default.Counter("cdb_engine_remote_imported_total")
)

// CacheEntry is one replicated verdict: the composite cache key
// (redundancy + canonical task key) and the full verdict it maps to.
type CacheEntry struct {
	Key         string  `json:"key"`
	Value       bool    `json:"value"`
	Confidence  float64 `json:"confidence"`
	Assignments int     `json:"assignments"`
	Inferred    bool    `json:"inferred,omitempty"`
}

// deltaLogCap bounds the replication log; peers further behind than
// this fall back to a full cache dump.
const deltaLogCap = 65536

// appendDelta records one settled verdict in the replication log.
// Never called for imports (re-exporting would ping-pong entries
// between shards) or for boot replays (unsettled until first use).
func (c *coalescer) appendDelta(key string, v exec.TaskVerdict) {
	c.deltaMu.Lock()
	c.deltaLog = append(c.deltaLog, CacheEntry{
		Key:         key,
		Value:       v.Value,
		Confidence:  v.Confidence,
		Assignments: v.Assignments,
		Inferred:    v.Inferred,
	})
	if over := len(c.deltaLog) - deltaLogCap; over > 0 {
		c.deltaBase += int64(over)
		n := copy(c.deltaLog, c.deltaLog[over:])
		c.deltaLog = c.deltaLog[:n]
	}
	c.deltaMu.Unlock()
}

// delta returns the log suffix after sequence number since, plus the
// sequence a caller should resume from. A peer behind the truncation
// horizon gets a full dump of the settled cache instead (sorted by key
// for determinism); entries added during the dump reappear in the next
// delta, and duplicate imports are no-ops.
func (c *coalescer) delta(since int64) ([]CacheEntry, int64) {
	c.deltaMu.Lock()
	seq := c.deltaBase + int64(len(c.deltaLog))
	if since >= c.deltaBase {
		start := since - c.deltaBase
		if start > int64(len(c.deltaLog)) {
			start = int64(len(c.deltaLog))
		}
		out := append([]CacheEntry(nil), c.deltaLog[start:]...)
		c.deltaMu.Unlock()
		return out, seq
	}
	c.deltaMu.Unlock()

	c.mu.Lock()
	out := make([]CacheEntry, 0, len(c.cache.items))
	for key, n := range c.cache.items {
		v := n.val
		// Ledger replays stay local until their first use settles them
		// (see resolve); remote entries already live on their origin.
		if v.Ledger || v.Remote {
			continue
		}
		out = append(out, CacheEntry{
			Key:         key,
			Value:       v.Value,
			Confidence:  v.Confidence,
			Assignments: v.Assignments,
			Inferred:    v.Inferred,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, seq
}

// importVerdicts inserts replicated verdicts, Remote-flagged, skipping
// keys already cached or in flight (local provenance wins — it carries
// the sharing telemetry the stats paths expect). Returns the number
// accepted.
func (c *coalescer) importVerdicts(entries []CacheEntry) int {
	n := 0
	for _, en := range entries {
		v := exec.TaskVerdict{
			Value:       en.Value,
			Confidence:  en.Confidence,
			Assignments: en.Assignments,
			Inferred:    en.Inferred,
			Remote:      true,
		}
		c.mu.Lock()
		_, have := c.cache.items[en.Key]
		_, flying := c.inflight[en.Key]
		if !have && !flying {
			c.cache.put(en.Key, v)
			n++
		}
		c.mu.Unlock()
	}
	if n > 0 {
		c.imported.Add(int64(n))
		mImported.Add(int64(n))
	}
	return n
}

// CacheDelta returns every replicable verdict added after sequence
// number since (0 = from the beginning) and the next sequence number.
func (e *Engine) CacheDelta(since int64) ([]CacheEntry, int64) {
	return e.coal.delta(since)
}

// ImportVerdicts merges a peer's cache delta into the verdict cache
// and returns how many entries were new here. Safe against concurrent
// queries; an entry that loses the race to a local resolve is simply
// dropped (both would carry the identical verdict).
func (e *Engine) ImportVerdicts(entries []CacheEntry) int {
	return e.coal.importVerdicts(entries)
}

// CacheSeq is the current replication sequence number (entries ever
// logged); surfaced on the cluster health endpoint so peers and
// monitors can see replication lag.
func (e *Engine) CacheSeq() int64 {
	e.coal.deltaMu.Lock()
	seq := e.coal.deltaBase + int64(len(e.coal.deltaLog))
	e.coal.deltaMu.Unlock()
	return seq
}

// Fingerprint hashes every input that determines a verdict or an
// answer: seed, redundancy, epsilon and the worker pool's latent
// accuracies. Two engines may replicate caches or merge shard results
// only when their fingerprints match — anything else would break the
// bit-identity contract, so the cluster layer refuses.
func (e *Engine) Fingerprint() string {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wr(e.cfg.Seed)
	wr(uint64(e.cfg.Redundancy))
	wr(math.Float64bits(e.cfg.Epsilon))
	workers := e.cfg.Pool.Workers()
	wr(uint64(len(workers)))
	for _, w := range workers {
		wr(math.Float64bits(w.LatentAccuracy()))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// QueueDepth reports admission pressure: queries holding execution
// slots and queries queued behind them. The coordinator prefers less
// loaded shards when several could execute a scatter part.
func (e *Engine) QueueDepth() (executing, queued int) {
	executing = len(e.slots)
	queued = len(e.admit) - executing
	if queued < 0 {
		queued = 0
	}
	return executing, queued
}

// ShardRun scopes one submission to the components a shard owns.
type ShardRun struct {
	// Fleet and Target name the partition for result-cache isolation:
	// the same statement under a different fleet layout or ownership
	// must not share whole answers.
	Fleet  string
	Target string
	// Owned decides component ownership by canonical component key.
	Owned func(componentKey string) bool
}

// SubmitShard is SubmitWithProgress restricted to the components run.Owned
// accepts: every other component is colored red before execution, so
// the query does exactly the owned slice of the work while task keys,
// edge ids and verdicts stay globally consistent with the other
// shards. The Answer's Shard sidecar carries what a coordinator needs
// to merge shard results bit-identically to a single-node run.
// Shard-scoped answers are never journaled (a replayed partial answer
// would poison the unfiltered answer cache).
func (e *Engine) SubmitShard(ctx context.Context, query string, run *ShardRun, progress func(exec.RoundUpdate)) (*Handle, error) {
	return e.submit(ctx, query, progress, run)
}

// ComponentKeys plans the statement (through the shared similarity
// cache — repeated routing plans cost one tokenization) and returns
// the canonical key of every tuple-graph component, sorted. This is
// the coordinator's routing key space: a key's ring owner executes
// that component.
func (e *Engine) ComponentKeys(query string) ([]string, error) {
	s, err := servable(query)
	if err != nil {
		return nil, err
	}
	p, err := e.src.bind(s, nil)
	if err != nil {
		return nil, err
	}
	return exec.ComponentKeys(p), nil
}
