package engine

import (
	"encoding/json"
	"strings"

	"cdb/internal/cql"
	"cdb/internal/exec"
	"cdb/internal/ledger"
	"cdb/internal/obs"
)

// mLedgerHits counts tasks served from verdicts replayed out of the
// durable ledger — crowd work paid for before the last restart.
var mLedgerHits = obs.Default.Counter("cdb_engine_ledger_hits_total")

// Journal is the engine's durability hook: an append-only record of
// the crowd work the engine has paid for, replayed on the next boot so
// a restart never re-asks the crowd. *ledger.Log implements it; the
// engine owns the journal it is configured with and closes it (after
// the last in-flight query drains) in Close.
//
// Everything logged is a pure function of the engine seed plus content
// keys, which is the invariant that makes replay safe: a verdict
// served from the journal is byte-identical to the one a fresh resolve
// would produce.
type Journal interface {
	// AppendVerdict records one resolved task verdict, keyed by the coalescer's
	// redundancy-qualified task key. Must be idempotent on key.
	AppendVerdict(ledger.Verdict)
	// Verdict looks a logged verdict back up at resolve time.
	Verdict(key string) (ledger.Verdict, bool)
	// AppendStatement records a canonical statement that reached
	// execution, so boot-time replay replans it and re-primes the
	// similarity-join cache.
	AppendStatement(stmt string)
	// AppendAnswer records one completed query's whole answer.
	AppendAnswer(ledger.Answer)

	// Verdicts, Statements and Answers return the replayed state in
	// first-logged order; the engine warms its caches from them before
	// admitting the first query.
	Verdicts() []ledger.Verdict
	Statements() []string
	Answers() []ledger.Answer

	// Stats snapshots the journal's durability counters.
	Stats() ledger.Stats
	// Close flushes, syncs and releases the journal. Idempotent.
	Close() error
}

// LedgerStats is the engine's view of its journal: the durable
// contents plus how much of the current session's traffic the replayed
// crowd work served.
type LedgerStats struct {
	// Enabled reports whether the engine runs with a journal at all.
	Enabled bool
	// Hits counts tasks served from replayed verdicts since boot —
	// each one a task whose crowd work was paid before the restart and
	// re-issued zero times.
	Hits int64
	// Compactions is always 0: the ledger writes only its WAL. It
	// stays for the benchmark's ledger.compactions row and retires
	// with it.
	Compactions int64
	ledger.Stats
}

// LedgerStats snapshots the journal counters; the zero value when the
// engine runs without one.
func (e *Engine) LedgerStats() LedgerStats {
	j := e.cfg.Journal
	if j == nil {
		return LedgerStats{}
	}
	return LedgerStats{
		Enabled: true,
		Hits:    e.coal.ledgerHit.Load(),
		Stats:   j.Stats(),
	}
}

// warmFromJournal pre-warms the engine's caches from the replayed
// journal before the first query is admitted: verdicts enter the
// shared verdict cache flagged Ledger (zero HIT charge on hit),
// statements are replanned to re-prime the similarity-join cache, and
// completed answers enter the whole-answer cache so a re-submitted
// statement is served without executing at all. Runs on the New
// goroutine — nothing else holds the caches yet.
func (e *Engine) warmFromJournal() {
	j := e.cfg.Journal

	// Replay order is first-logged order, so the LRU ends up with the
	// most recently logged verdicts as the most recently used — the
	// right entries survive when the journal outgrew the cache.
	//
	// Settled verdicts — ones whose owner query completed (an answer was
	// logged after them) — warm as ordinary cache entries: in the
	// uninterrupted timeline every later ask on them was a plain cache
	// hit, and the owner's own accounting replays whole from the answer
	// log. Only the unsettled tail (the query a crash cut mid-flight)
	// carries the Ledger flag, whose first use mirrors the owner resolve
	// it replaces.
	for _, v := range j.Verdicts() {
		tv := exec.TaskVerdict{
			Value:       v.Value,
			Confidence:  v.Confidence,
			Assignments: v.Assignments,
			Ledger:      !v.Settled,
		}
		e.coal.mu.Lock()
		e.coal.cache.put(v.Key, tv)
		e.coal.mu.Unlock()
	}

	// Replanning a logged statement tokenizes and indexes its
	// similarity joins into the shared join cache; the plan itself is
	// discarded (serve builds a fresh one per execution anyway). What is
	// primed is the join, not the statement: thousands of journalled
	// statements share a handful of CROWDJOINs, so one whose joins have
	// all been primed by an earlier statement is not planned again. A
	// statement that no longer parses or plans — the catalog changed
	// under the ledger — is skipped, not fatal, and primes nothing.
	primed := map[string]bool{}
	for _, stmt := range j.Statements() {
		s, err := servable(stmt)
		if err != nil {
			continue
		}
		var joins []string
		for _, pred := range s.Where {
			if key := strings.ToLower(pred.Left.String() + "\x00" + pred.Right.String()); pred.Kind == cql.CrowdJoin && !primed[key] {
				joins = append(joins, key)
			}
		}
		if len(joins) == 0 {
			continue
		}
		if _, err := e.src.bind(s, nil); err == nil {
			for _, key := range joins {
				primed[key] = true
			}
		}
	}

	if e.results == nil {
		return
	}
	for _, a := range j.Answers() {
		var rep exec.Report
		if err := json.Unmarshal(a.Report, &rep); err != nil {
			continue
		}
		ans := &Answer{Columns: a.Columns, Rows: a.Rows, Report: &rep}
		e.resMu.Lock()
		e.results.put(a.Stmt, ans)
		e.resMu.Unlock()
	}
}

// journalAnswer logs a completed query's answer: the canonical
// statement, the projected rows, and the executor report with the raw
// embeddings stripped (the rows already carry the projection; the
// report's numbers are what a warm serve needs to rebuild an identical
// wire Result).
func (e *Engine) journalAnswer(key string, ans *Answer) {
	rep := *ans.Report
	rep.Answers = nil
	raw, err := json.Marshal(&rep)
	if err != nil {
		return
	}
	e.cfg.Journal.AppendAnswer(ledger.Answer{
		Stmt:    key,
		Columns: ans.Columns,
		Rows:    ans.Rows,
		Report:  raw,
	})
}
