// Package ledger is CDB's durability substrate: an append-only,
// CRC-framed write-ahead log of the crowd work a serving engine has
// already paid for. Crowd answers are the one thing in the system that
// costs real money, and they are pure functions of (engine seed, task
// key, redundancy) — which makes them safe to persist and replay: a
// verdict served from the ledger is byte-identical to the one a fresh
// resolve would produce, it just charges the crowd nothing.
//
// Three record kinds are logged: every resolved task verdict (keyed by
// the redundancy-qualified canonical task key the engine's coalescer
// already shares on), every canonical statement that reached execution
// (so a warm boot can rebuild plans and re-prime the similarity-join
// cache), and every completed query's full answer (so a re-submitted
// statement after a restart is served whole). Appends drop duplicate
// keys before they write, so the WAL never holds a superseded record
// and is the ledger's one durable file. On Open the WAL is replayed; a
// torn tail — a frame cut mid-write by a crash — is truncated at the
// last valid CRC frame, never fatal. A snapshot.ldg left by an older
// build that compacted is replayed first and never written: it holds
// paid verdicts nowhere else. Replay is idempotent (records are
// content-keyed values), so records the two files share apply once.
//
// Durability is tunable per Options.Fsync: every append, a background
// interval, or never (the OS decides). Close always flushes and syncs
// whatever policy is active.
package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cdb/internal/obs"
)

// Ledger metrics (process-wide, across all ledgers).
var (
	mAppends    = obs.Default.Counter("cdb_ledger_appends_total")
	mAppendErrs = obs.Default.Counter("cdb_ledger_append_errors_total")
	mReplayed   = obs.Default.Counter("cdb_ledger_replayed_total")
	mTorn       = obs.Default.Counter("cdb_ledger_torn_truncations_total")
	mFsyncs     = obs.Default.Counter("cdb_ledger_fsyncs_total")
)

// File names inside a ledger directory. Open only reads snapName:
// earlier builds compacted the WAL into it.
const (
	walName  = "wal.ldg"
	snapName = "snapshot.ldg"
)

// ErrSeedMismatch means the directory holds a ledger written under a
// different engine seed. Verdicts are pure functions of the seed, so
// replaying them into an engine with another seed would serve answers
// that engine could never have produced; Open refuses.
var ErrSeedMismatch = errors.New("ledger: engine seed does not match")

// FsyncPolicy selects when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncInterval syncs dirty data on a background ticker
	// (Options.FsyncEvery, default 100ms): bounded loss window, near-
	// zero per-append cost. The default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append: zero accepted-verdict loss
	// even on kill -9, at one fsync per record.
	FsyncAlways
	// FsyncNever leaves syncing to the OS page cache (Close still
	// syncs). For tests and throwaway runs.
	FsyncNever
)

// ParsePolicy maps the -fsync flag spelling onto a policy.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("ledger: unknown fsync policy %q (want always, interval or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}

// Options configures Open.
type Options struct {
	// Seed is the engine seed the logged verdicts were (or will be)
	// produced under; part of the file header, validated on reopen.
	Seed uint64
	// Fsync is the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the interval policy's tick (default 100ms).
	FsyncEvery time.Duration
}

// header is the first record of every ledger file.
type header struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"` // "wal"; "snap" in a legacy snapshot
	Seed    uint64 `json:"seed"`
}

const formatVersion = 1

// Verdict is one logged task ruling. Key is the redundancy-qualified
// canonical task key (strconv.Itoa(k) + "\x1f" + Plan.TaskKey) — the
// exact sharing identity of the engine's verdict cache.
type Verdict struct {
	Key         string  `json:"key"`
	Value       bool    `json:"value"`
	Confidence  float64 `json:"conf"`
	Assignments int     `json:"asks"`

	// Settled is derived, never stored: true when some completed
	// answer was logged after this verdict, i.e. the query that owned
	// its resolve finished. A settled verdict warms the cache as an
	// ordinary entry (its owner's work is replayed whole from the
	// answer log, so any later resolver ask is a plain cache hit in
	// the uninterrupted timeline); only unsettled verdicts — the tail
	// a kill -9 cut mid-query — replay with first-use-mirrors-owner
	// accounting.
	Settled bool `json:"-"`
}

// Answer is one logged completed query: the canonical statement, its
// projected rows, and the raw executor report (Answers stripped — the
// rows already carry the projection).
type Answer struct {
	Stmt    string          `json:"stmt"`
	Columns []string        `json:"columns"`
	Rows    [][]string      `json:"rows"`
	Report  json.RawMessage `json:"report"`
}

type statementRecord struct {
	Stmt string `json:"stmt"`
}

// Stats is a point-in-time snapshot of one ledger's counters and
// durable contents.
type Stats struct {
	Verdicts   int // distinct verdicts held
	Statements int // distinct canonical statements held
	Answers    int // distinct completed answers held

	Replayed        int64 // records applied from disk at Open
	Appended        int64 // records appended since Open
	AppendErrors    int64 // appends or syncs that failed (state kept in memory)
	TornTruncations int64 // torn WAL tails truncated at Open
	WALBytes        int64 // current WAL size
}

// Log is an open ledger directory. All methods are safe for concurrent
// use. Append methods never fail the caller: an I/O error is counted
// (Stats.AppendErrors) and the record is kept in memory, so a sick
// disk degrades durability, not query serving.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	closed bool
	dirty  bool

	verdicts map[string]Verdict
	vorder   []string
	stmts    map[string]bool
	sorder   []string
	answers  map[string]Answer
	aorder   []string

	// Global first-logged sequence, the basis of Verdict.Settled.
	seq     int64
	vseq    map[string]int64
	lastAns int64 // seq of the most recent answer, 0 if none

	walBytes int64
	stats    Stats

	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the ledger in dir, replays a legacy
// snapshot (if any) then the WAL into memory, truncates any torn WAL
// tail at the last valid CRC frame, and starts the background sync loop
// if the policy is FsyncInterval. It writes nothing but the WAL. The
// directory must not be shared between live Logs.
func Open(dir string, opts Options) (*Log, error) {
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		verdicts: make(map[string]Verdict),
		stmts:    make(map[string]bool),
		answers:  make(map[string]Answer),
		vseq:     make(map[string]int64),
	}

	// A legacy snapshot first: it is the compacted prefix of the log an
	// older build left. It is read, never rewritten. A torn or corrupt
	// tail inside it just ends its replay early — the records past the
	// damage are gone, but the WAL (and idempotent appends from the
	// resumed workload) heal forward.
	snap, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if len(snap) > 0 {
		if _, err := l.replay(snap); err != nil {
			return nil, err
		}
	}

	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	// Read the WAL into one buffer of its size: growing a buffer
	// through io.ReadAll copies a large log several times over.
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	wal := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, wal); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	valid, err := l.replay(wal)
	if err != nil {
		f.Close()
		return nil, err
	}
	if valid < int64(len(wal)) {
		// Torn tail: a crash cut the last write mid-frame. Truncate to
		// the last valid frame and carry on — the lost suffix was never
		// acknowledged as durable.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: %w", err)
		}
		l.stats.TornTruncations++
		mTorn.Inc()
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l.f = f
	l.walBytes = valid
	if valid == 0 {
		// Fresh (or fully torn) WAL: stamp the header so reopen can
		// validate the seed.
		hdr, _ := json.Marshal(header{Version: formatVersion, Kind: "wal", Seed: opts.Seed})
		if err := l.writeLocked(frameHeader, hdr); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: write header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: %w", err)
		}
		l.dirty = false
	}

	if opts.Fsync == FsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// replay applies one file's frames to the in-memory state and returns
// the offset past the last valid frame. Only a header seed mismatch is
// an error; structurally bad frames end the scan (torn-tail rule), and
// records are applied idempotently (first occurrence wins — every
// occurrence is byte-identical by construction).
func (l *Log) replay(buf []byte) (int64, error) {
	return scanFrames(buf, func(typ byte, body []byte) error {
		switch typ {
		case frameHeader:
			var h header
			if err := json.Unmarshal(body, &h); err != nil {
				return nil
			}
			if h.Seed != l.opts.Seed {
				return fmt.Errorf("%w: ledger %s holds seed %d, engine runs seed %d",
					ErrSeedMismatch, l.dir, h.Seed, l.opts.Seed)
			}
			return nil
		case frameVerdict:
			var v Verdict
			if err := json.Unmarshal(body, &v); err != nil {
				return nil
			}
			if _, ok := l.verdicts[v.Key]; !ok {
				l.verdicts[v.Key] = v
				l.vorder = append(l.vorder, v.Key)
				l.seq++
				l.vseq[v.Key] = l.seq
			}
		case frameStatement:
			var s statementRecord
			if err := json.Unmarshal(body, &s); err != nil {
				return nil
			}
			if !l.stmts[s.Stmt] {
				l.stmts[s.Stmt] = true
				l.sorder = append(l.sorder, s.Stmt)
				l.seq++
			}
		case frameAnswer:
			var a Answer
			if err := json.Unmarshal(body, &a); err != nil {
				return nil
			}
			if _, ok := l.answers[a.Stmt]; !ok {
				l.answers[a.Stmt] = a
				l.aorder = append(l.aorder, a.Stmt)
				l.seq++
				l.lastAns = l.seq
			}
		default:
			// Unknown record type from a future version: skip, keep
			// replaying — forward compatibility for rolling restarts.
			return nil
		}
		l.stats.Replayed++
		mReplayed.Inc()
		return nil
	})
}

// writeLocked frames and writes one record; the caller holds l.mu.
func (l *Log) writeLocked(typ byte, body []byte) error {
	frame := appendFrame(make([]byte, 0, frameOverhead+1+len(body)), typ, body)
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	l.walBytes += int64(len(frame))
	l.dirty = true
	return nil
}

// appendLocked logs one record under the active fsync policy. I/O
// failures are absorbed into Stats.AppendErrors — in-memory state
// already holds the record.
func (l *Log) appendLocked(typ byte, rec any) {
	if l.closed || l.f == nil {
		return
	}
	body, err := json.Marshal(rec)
	if err == nil {
		err = l.writeLocked(typ, body)
	}
	if err != nil {
		l.stats.AppendErrors++
		mAppendErrs.Inc()
		return
	}
	l.stats.Appended++
	mAppends.Inc()
	if l.opts.Fsync == FsyncAlways {
		l.syncLocked()
	}
}

// AppendVerdict logs one resolved verdict. Duplicate keys are dropped:
// verdicts are pure functions of their key, so the first record is
// already the whole truth.
func (l *Log) AppendVerdict(v Verdict) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.verdicts[v.Key]; ok {
		return
	}
	v.Settled = false
	l.verdicts[v.Key] = v
	l.vorder = append(l.vorder, v.Key)
	l.seq++
	l.vseq[v.Key] = l.seq
	l.appendLocked(frameVerdict, v)
}

// AppendStatement logs one canonical statement that reached execution,
// so a warm boot replans it (re-priming the similarity-join cache).
func (l *Log) AppendStatement(stmt string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stmts[stmt] {
		return
	}
	l.stmts[stmt] = true
	l.sorder = append(l.sorder, stmt)
	l.seq++
	l.appendLocked(frameStatement, statementRecord{Stmt: stmt})
}

// AppendAnswer logs one completed query's whole answer, keyed by its
// canonical statement.
func (l *Log) AppendAnswer(a Answer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.answers[a.Stmt]; ok {
		return
	}
	l.answers[a.Stmt] = a
	l.aorder = append(l.aorder, a.Stmt)
	l.seq++
	l.lastAns = l.seq
	l.appendLocked(frameAnswer, a)
}

// Verdict looks up a logged verdict by its redundancy-qualified key.
func (l *Log) Verdict(key string) (Verdict, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.verdicts[key]
	if ok {
		v.Settled = l.vseq[key] < l.lastAns
	}
	return v, ok
}

// Verdicts returns every held verdict in first-logged order, Settled
// filled in.
func (l *Log) Verdicts() []Verdict {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Verdict, len(l.vorder))
	for i, k := range l.vorder {
		v := l.verdicts[k]
		v.Settled = l.vseq[k] < l.lastAns
		out[i] = v
	}
	return out
}

// Statements returns every held statement in first-logged order.
func (l *Log) Statements() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.sorder))
	copy(out, l.sorder)
	return out
}

// Answers returns every held answer in first-logged order.
func (l *Log) Answers() []Answer {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Answer, len(l.aorder))
	for i, k := range l.aorder {
		out[i] = l.answers[k]
	}
	return out
}

// Stats snapshots the ledger's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Verdicts = len(l.verdicts)
	st.Statements = len(l.stmts)
	st.Answers = len(l.answers)
	st.WALBytes = l.walBytes
	return st
}

func (l *Log) syncLocked() {
	if l.f == nil {
		return
	}
	if err := l.f.Sync(); err != nil {
		l.stats.AppendErrors++
		mAppendErrs.Inc()
		return
	}
	l.dirty = false
	mFsyncs.Inc()
}

// Sync forces buffered appends to stable storage regardless of policy.
func (l *Log) Sync() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed && l.dirty {
		l.syncLocked()
	}
}

// syncLoop is the FsyncInterval writer: it syncs dirty appends on a
// ticker until Close stops it.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Close stops the background sync loop (if any), flushes and syncs all
// buffered appends, and closes the WAL. Idempotent; appends after
// Close are kept in memory only.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.dirty {
		if serr := l.f.Sync(); serr != nil {
			err = serr
		} else {
			l.dirty = false
			mFsyncs.Inc()
		}
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
