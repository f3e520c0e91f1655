package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cdb/internal/ledger"
	"cdb/internal/obs"
	"cdb/internal/testutil"
)

// runWithJournal executes queries one at a time on an engine backed by
// a ledger in dir, returns the outcomes and the engine's final stats.
// The engine owns (and closes) the journal.
func runWithJournal(t *testing.T, dir string, seed uint64, queries []string) ([]outcome, Stats) {
	t.Helper()
	jl, err := ledger.Open(dir, ledger.Options{Seed: seed, Fsync: ledger.FsyncNever})
	if err != nil {
		t.Fatalf("ledger.Open: %v", err)
	}
	cfg := testConfig(t, seed)
	cfg.MaxInFlight = 1
	cfg.MaxQueue = len(queries) + 1
	cfg.Journal = jl
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]outcome, len(queries))
	for i, q := range queries {
		h, err := e.Submit(context.Background(), q)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ans, err := h.wait(context.Background())
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = outcome{cols: ans.Columns, rows: ans.Rows, rep: ans.Report}
	}
	st := e.Stats()
	e.Close()
	return out, st
}

// wireView is the slice of a Report that reaches the HTTP wire (plus
// row data): the fields a resumed query must reproduce bit-identically.
// Report.Answers (stripped from replayed answers) and LedgerTasks
// (provenance, deliberately off the wire) are excluded by design.
type wireView struct {
	cols                   []string
	rows                   [][]string
	tasks, rounds          int
	precision, recall      float64
	assignments, hits      int
	dollars                float64
	confidence             []float64
	cachedTasks, coalesced int
	partial                bool
	partialReason          string
}

func toWire(o outcome) wireView {
	r := o.rep
	return wireView{
		cols: o.cols, rows: o.rows,
		tasks: r.Metrics.Tasks, rounds: r.Metrics.Rounds,
		precision: r.Metrics.Precision, recall: r.Metrics.Recall,
		assignments: r.Assignments, hits: r.HITs, dollars: r.Dollars,
		confidence:  r.Confidence,
		cachedTasks: r.CachedTasks, coalesced: r.Coalesced,
		partial: r.Reliability.Partial, partialReason: r.Reliability.Reason,
	}
}

func sameOutcomes(t *testing.T, label string, got, want []outcome) {
	t.Helper()
	for i := range want {
		g, w := toWire(got[i]), toWire(want[i])
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: query %d wire view diverged:\ngot  %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestJournalDoesNotPerturbResults: an engine with a ledger attached
// must produce bit-identical answers and per-query reports to one
// without — logging is pure observation.
func TestJournalDoesNotPerturbResults(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	queries := workload()[:5]
	ref := runSequential(t, 42, queries)
	got, st := runWithJournal(t, t.TempDir(), 42, queries)
	sameOutcomes(t, "with-journal vs without", got, ref)
	if st.LedgerHits != 0 {
		t.Fatalf("fresh ledger produced %d replay hits", st.LedgerHits)
	}
}

// TestWarmRestartBitIdentical is the tentpole property at engine level:
// close an engine, reopen its ledger under the same seed, resubmit —
// answers and reports are bit-identical to a cold run, and the crowd
// is charged nothing (every completed answer replays whole).
func TestWarmRestartBitIdentical(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	queries := workload()[:5]
	ref := runSequential(t, 42, queries)

	first, _ := runWithJournal(t, dir, 42, queries)
	sameOutcomes(t, "first ledger run", first, ref)

	second, st := runWithJournal(t, dir, 42, queries)
	sameOutcomes(t, "warm restart", second, ref)
	if st.AssignmentsIssued != 0 {
		t.Fatalf("warm restart issued %d assignments; completed work must replay free", st.AssignmentsIssued)
	}
	if st.QueriesCached != int64(len(queries)) {
		t.Fatalf("QueriesCached = %d, want %d (answers replay whole)", st.QueriesCached, len(queries))
	}
	ls := (&Engine{}).LedgerStats()
	if ls.Enabled {
		t.Fatalf("journal-less engine reports an enabled ledger")
	}
}

// TestTruncatedLedgerResumes cuts the WAL at arbitrary byte offsets —
// the kill -9 shapes — and resubmits: every prefix must reopen without
// error and produce bit-identical answers, paying only for what the
// truncated ledger no longer holds.
func TestTruncatedLedgerResumes(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	master := t.TempDir()
	queries := workload()[:3]
	ref := runSequential(t, 42, queries)
	if _, st := runWithJournal(t, master, 42, queries); st.AssignmentsIssued == 0 {
		t.Fatalf("seeding run issued no assignments")
	}
	wal, err := os.ReadFile(filepath.Join(master, "wal.ldg"))
	if err != nil {
		t.Fatal(err)
	}

	// A spread of cut points: empty, mid-header, 1/4, mid, 3/4, one
	// byte short (guaranteed mid-frame), full.
	cuts := []int{0, 5, len(wal) / 4, len(wal) / 2, 3 * len(wal) / 4, len(wal) - 1, len(wal)}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.ldg"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, st := runWithJournal(t, dir, 42, queries)
		sameOutcomes(t, "resume after cut", got, ref)
		if cut == len(wal) && st.AssignmentsIssued != 0 {
			t.Fatalf("cut=%d: full ledger still issued %d assignments", cut, st.AssignmentsIssued)
		}
		if cut == 0 && st.LedgerHits != 0 {
			t.Fatalf("cut=0: empty ledger produced replay hits")
		}
	}
}

// TestInferredLedgerVerdictReplays: ledgers written while the engine
// could publish inferred verdicts carry verdict frames with
// "inferred":true. The reader ignores the field, so such a verdict
// warm-restarts as an ordinary ledger hit: a WAL cut after the
// seeding run's verdicts, before its answers, with every verdict frame
// re-written to carry the field, resumes bit-identical to the
// uninterrupted run, pays the crowd nothing, and counts each verdict's
// first use as a ledger hit, not a cache hit.
func TestInferredLedgerVerdictReplays(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	master := t.TempDir()
	queries := workload()[:1]
	ref := runSequential(t, 42, queries)
	_, seeded := runWithJournal(t, master, 42, queries)
	wal, err := os.ReadFile(filepath.Join(master, "wal.ldg"))
	if err != nil {
		t.Fatal(err)
	}

	// Frame layout (internal/ledger/frame.go): uint32 LE payload
	// length, uint32 LE CRC32-IEEE of the payload, then the payload —
	// a record-type byte and its JSON body.
	var old []byte
	verdicts := 0
	for off := 0; off < len(wal); {
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		payload := wal[off+8 : off+8+n]
		off += 8 + n
		switch payload[0] {
		case 'A':
			continue // the cut: no answer settles the verdicts
		case 'V':
			body := bytes.TrimSuffix(payload[1:], []byte("}"))
			payload = append(append([]byte{'V'}, body...), `,"inferred":true}`...)
			verdicts++
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		old = append(append(old, hdr[:]...), payload...)
	}
	if verdicts == 0 {
		t.Fatal("seeding run logged no verdicts")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.ldg"), old, 0o644); err != nil {
		t.Fatal(err)
	}

	got, st := runWithJournal(t, dir, 42, queries)
	sameOutcomes(t, "resume from inferred verdicts", got, ref)
	if st.AssignmentsIssued != 0 {
		t.Fatalf("resume issued %d assignments; every verdict was logged", st.AssignmentsIssued)
	}
	// Each logged verdict's first use is a ledger hit, as its owner
	// resolve was; only the uses the seeding run served from its cache
	// count as cache hits.
	if st.LedgerHits != int64(verdicts) || st.Cached != seeded.Cached {
		t.Fatalf("ledger hits %d, cache hits %d; want %d and %d",
			st.LedgerHits, st.Cached, verdicts, seeded.Cached)
	}
}

// TestLedgerSeedMismatchRejected: an engine must refuse a ledger
// recorded under another seed — replaying those verdicts would serve
// answers this engine could never produce.
func TestLedgerSeedMismatchRejected(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	jl, err := ledger.Open(dir, ledger.Options{Seed: 1, Fsync: ledger.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	jl.AppendVerdict(ledger.Verdict{Key: "5\x1fk", Value: true, Confidence: 0.8, Assignments: 5})
	jl.Close()
	if _, err := ledger.Open(dir, ledger.Options{Seed: 2, Fsync: ledger.FsyncNever}); err == nil {
		t.Fatal("Open under a different seed succeeded")
	}
}

// TestLedgerStatsSurface: the engine surfaces ledger provenance out of
// band — enabled flag, replay hits, durable record counts.
func TestLedgerStatsSurface(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	queries := workload()[:2]
	runWithJournal(t, dir, 42, queries)

	jl, err := ledger.Open(dir, ledger.Options{Seed: 42, Fsync: ledger.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 42)
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 4
	cfg.Journal = jl
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ls := e.LedgerStats()
	if !ls.Enabled {
		t.Fatal("LedgerStats().Enabled = false with a journal attached")
	}
	if ls.Verdicts == 0 || ls.Statements == 0 || ls.Answers == 0 {
		t.Fatalf("replayed ledger holds no records: %+v", ls)
	}
	if ls.Replayed == 0 {
		t.Fatalf("Replayed = 0 after a warm boot: %+v", ls)
	}
}

// TestWarmRestartPrimesJoinsNotStatements: boot replans a journalled
// statement only while one of its CROWDJOINs is still unprimed — fifteen
// statements over three joins run three similarity joins and two binds
// (2J primes two, 3J the third), not fifteen binds — and a statement
// that no longer parses or plans is skipped, priming nothing and
// failing nothing.
func TestWarmRestartPrimesJoinsNotStatements(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	jl, err := ledger.Open(dir, ledger.Options{Seed: 42, Fsync: ledger.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	ghost := `SELECT * FROM Ghost, Paper WHERE Ghost.title CROWDJOIN Paper.title;`
	jl.AppendStatement(ghost)
	jl.AppendStatement(`SELECT FROM WHERE;`)
	for _, q := range workload()[:5] {
		// The ledger keeps a statement once: three projections of each shape.
		for _, cols := range []string{"*", "Paper.title", "Paper.title, Paper.author"} {
			jl.AppendStatement("SELECT " + cols + " " + q[strings.Index(q, "FROM"):])
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl, err = ledger.Open(dir, ledger.Options{Seed: 42, Fsync: ledger.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(jl.Statements()); n != 17 {
		t.Fatalf("ledger replays %d statements, want 15 and the two that do not plan", n)
	}
	simJoins := obs.Default.Counter("cdb_sim_joins_total")
	joins, binds := simJoins.Value(), mPhasePlan.Count()
	cfg := testConfig(t, 42)
	cfg.Journal = jl
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if d := simJoins.Value() - joins; d != 3 {
		t.Errorf("boot ran %d similarity joins, want one per distinct CROWDJOIN (3)", d)
	}
	if st := e.Stats(); st.JoinsComputed != 3 {
		t.Errorf("join cache holds %d joins after boot, want 3", st.JoinsComputed)
	}
	// The first 2J, the first 3J, and the statement over no such table.
	if d := mPhasePlan.Count() - binds; d != 3 {
		t.Errorf("boot bound %d statements, want 3", d)
	}
}
