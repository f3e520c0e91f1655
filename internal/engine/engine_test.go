package engine

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/exec"
	"cdb/internal/ledger"
	"cdb/internal/reqid"
	"cdb/internal/stats"
	"cdb/internal/testutil"
)

func testConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	d := dataset.GenPaper(dataset.Config{Seed: 7, Scale: 0.08})
	return Config{
		Catalog: d.Catalog,
		Oracle:  d.Oracle,
		Pool:    crowd.NewPool(50, 0.8, 0.1, stats.NewRNG(3)),
		Seed:    seed,
	}
}

// workload is the paper's five query shapes, each submitted three
// times — the overlap a serving layer exists to exploit.
func workload() []string {
	qs := dataset.Queries("paper")
	var out []string
	for rep := 0; rep < 3; rep++ {
		for _, label := range dataset.QueryLabels() {
			out = append(out, qs[label])
		}
	}
	return out
}

type outcome struct {
	cols []string
	rows [][]string
	rep  *exec.Report
}

// runSequential executes the workload one query at a time on a fresh
// engine (concurrency 1, queue sized to hold the rest).
func runSequential(t *testing.T, seed uint64, queries []string) []outcome {
	t.Helper()
	return runSequentialConfig(t, testConfig(t, seed), queries)
}

// runSequentialConfig is runSequential on an engine configured as cfg.
func runSequentialConfig(t *testing.T, cfg Config, queries []string) []outcome {
	t.Helper()
	cfg.MaxInFlight = 1
	cfg.MaxQueue = len(queries)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
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
	return out
}

// TestConcurrentMatchesSequential is the engine's core property: with
// the same seed, a query returns bit-identical columns, rows and
// per-query cost whether it runs alone or races an 8-deep fleet whose
// tasks coalesce. Run under -race this also exercises the coalescer,
// join cache and dict for data races.
func TestConcurrentMatchesSequential(t *testing.T) {
	checkConcurrentMatchesSequential(t, false)
}

// TestConcurrentMatchesSequentialPlanned re-runs the bit-identity
// property with the greedy planner on: a planned predicate order,
// asked through the shared coalescer, must not let scheduling leak
// into results or charges.
func TestConcurrentMatchesSequentialPlanned(t *testing.T) {
	checkConcurrentMatchesSequential(t, true)
}

func checkConcurrentMatchesSequential(t *testing.T, planner bool) {
	defer testutil.VerifyNoLeaks(t)()
	const seed = 99
	queries := workload()
	cfg := testConfig(t, seed)
	cfg.Planner = planner
	want := runSequentialConfig(t, cfg, queries)

	cfg = testConfig(t, seed)
	cfg.Planner = planner
	cfg.MaxInFlight = 8
	cfg.MaxQueue = len(queries)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, len(queries))
	for i, q := range queries {
		h, err := e.Submit(context.Background(), q)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		ans, err := h.wait(context.Background())
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := ans.Plan != nil; got != planner {
			t.Fatalf("query %d: planner-ordered = %v, want %v", i, got, planner)
		}
		w := want[i]
		if !sameStrings(ans.Columns, w.cols) {
			t.Fatalf("query %d: columns %v != %v", i, ans.Columns, w.cols)
		}
		if len(ans.Rows) != len(w.rows) {
			t.Fatalf("query %d: %d rows, sequential got %d", i, len(ans.Rows), len(w.rows))
		}
		for r := range ans.Rows {
			if !sameStrings(ans.Rows[r], w.rows[r]) {
				t.Fatalf("query %d row %d: %v != %v", i, r, ans.Rows[r], w.rows[r])
			}
		}
		// Virtual chargeback: per-query cost must not depend on how
		// much of the work was shared.
		if ans.Report.Assignments != w.rep.Assignments {
			t.Fatalf("query %d: %d assignments, sequential charged %d",
				i, ans.Report.Assignments, w.rep.Assignments)
		}
		if ans.Report.Metrics.Tasks != w.rep.Metrics.Tasks || ans.Report.Metrics.Rounds != w.rep.Metrics.Rounds {
			t.Fatalf("query %d: tasks/rounds %d/%d vs sequential %d/%d", i,
				ans.Report.Metrics.Tasks, ans.Report.Metrics.Rounds,
				w.rep.Metrics.Tasks, w.rep.Metrics.Rounds)
		}
	}
	st := e.Stats()
	e.Close()
	if st.Completed != int64(len(queries)) {
		t.Fatalf("completed %d of %d", st.Completed, len(queries))
	}
	if st.Coalesced+st.Cached == 0 {
		t.Fatalf("no tasks shared across %d overlapping queries", len(queries))
	}
	if st.AssignmentsSaved <= 0 || st.HITsSaved <= 0 {
		t.Fatalf("no crowd work saved: %+v", st)
	}
	if st.JoinsShared == 0 {
		t.Fatalf("no similarity joins shared: %+v", st)
	}
	if st.AssignmentsIssued+st.AssignmentsSaved == 0 {
		t.Fatalf("engine did no work at all")
	}
}

// TestSubmitConcurrently hammers Submit itself from many goroutines to
// catch admission races under -race.
func TestSubmitConcurrently(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	cfg := testConfig(t, 5)
	cfg.MaxInFlight = 8
	cfg.MaxQueue = 64
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	queries := workload()
	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			h, err := e.Submit(context.Background(), q)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = h.wait(context.Background())
		}(i, q)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// TestBackpressureAndCancellation pins the execution slot (white-box)
// and checks that the queue bounds admission with ErrOverloaded and
// that a cancelled query leaves the queue with the context's error.
func TestBackpressureAndCancellation(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	cfg := testConfig(t, 5)
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Queries("paper")["2J"]

	e.slots <- struct{}{} // occupy the only execution slot
	ctx, cancel := context.WithCancel(context.Background())
	h1, err := e.Submit(ctx, q) // admitted, waiting on the slot
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Submit(context.Background(), q) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), q); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded with a full queue, got %v", err)
	}
	if e.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", e.Stats().Rejected)
	}

	cancel() // h1 gives up while queued
	if _, err := h1.wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v", err)
	}

	<-e.slots // release the pinned slot; h2 runs
	if ans, err := h2.wait(context.Background()); err != nil || len(ans.Rows) == 0 {
		t.Fatalf("queued query after release: rows=%v err=%v", ans, err)
	}
	e.Close()
}

// TestAdmissionTicketReturnsBeforeDone submits one query at a time
// against room for one, and checks after each answer that its
// admission ticket is back: a caller woken by Done can submit again
// without being shed by its own last query.
func TestAdmissionTicketReturnsBeforeDone(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	cfg := testConfig(t, 5)
	cfg.MaxInFlight = 1
	cfg.MaxQueue = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := dataset.Queries("paper")["2J"]
	for i := 0; i < 200; i++ {
		h, err := e.Submit(context.Background(), q)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		<-h.Done()
		if held := len(e.admit); held != 0 {
			t.Fatalf("submission %d: %d admission tickets held after its answer", i, held)
		}
	}
}

// TestRejectsUnsupported checks the statements the shared path must
// refuse, that it serves GROUP BY and ORDER BY, and that a closed engine
// refuses everything.
func TestRejectsUnsupported(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	cfg := testConfig(t, 5)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), "CREATE TABLE t (a varchar(8));"); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("CREATE TABLE: want ErrUnsupported, got %v", err)
	}
	h, err := e.Submit(context.Background(), `SELECT Paper.title FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title GROUP BY Paper.title;`)
	if err != nil {
		t.Fatalf("GROUP BY refused: %v", err)
	}
	if ans, err := h.wait(context.Background()); err != nil || ans.Columns[len(ans.Columns)-1] != "group_count" {
		t.Fatalf("GROUP BY served as %v, %v", ans, err)
	}
	h, err = e.Submit(context.Background(), orderByQueries[0])
	if err != nil {
		t.Fatalf("ORDER BY refused: %v", err)
	}
	if ans, err := h.wait(context.Background()); err != nil || len(ans.Rows) == 0 {
		t.Fatalf("ORDER BY served as %v, %v", ans, err)
	}
	if _, err := e.Submit(context.Background(), "SELECT FROM;"); err == nil {
		t.Fatal("parse error not surfaced")
	}
	e.Close()
	if _, err := e.Submit(context.Background(), dataset.Queries("paper")["2J"]); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after Close, got %v", err)
	}
}

// orderByQueries order the test dataset's join by a string column, by a
// number column, and after a GROUP BY.
var orderByQueries = []string{
	`SELECT Paper.title FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title ORDER BY Paper.title;`,
	`SELECT Paper.title, Citation.number FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title ORDER BY Citation.number;`,
	`SELECT Paper.conference FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title GROUP BY Paper.conference ORDER BY Paper.conference;`,
}

// TestEngineOrderByConcurrentMatchesSequential: a served ORDER BY
// returns the same rows and Stats whether the engine runs one query at
// a time or eight that share their comparisons' HITs.
func TestEngineOrderByConcurrentMatchesSequential(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	const seed = 17
	queries := append(slices.Clone(orderByQueries), orderByQueries...)
	want := runSequential(t, seed, queries)
	cfg := testConfig(t, seed)
	cfg.MaxInFlight = 8
	cfg.MaxQueue = len(queries)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	handles := make([]*Handle, len(queries))
	for i, q := range queries {
		if handles[i], err = e.Submit(context.Background(), q); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	got := make([]outcome, len(queries))
	for i, h := range handles {
		ans, err := h.wait(context.Background())
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got[i] = outcome{cols: ans.Columns, rows: ans.Rows, rep: ans.Report}
	}
	sameCharges(t, "engine@8 vs engine@1", got, want)
	for i, o := range want[:len(orderByQueries)] {
		if len(o.rows) < 2 || o.rep.Metrics.Rounds < 2 {
			t.Fatalf("query %d: %d rows in %d rounds; the sort asked nothing", i, len(o.rows), o.rep.Metrics.Rounds)
		}
	}
}

// TestEngineOrderByWarmRestart: the comparisons of a served ORDER BY
// are journalled like any verdict, so an engine restarted on its ledger
// with the answer cache off re-serves the statements, rows and Stats
// unchanged, without a new assignment.
func TestEngineOrderByWarmRestart(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	dir := t.TempDir()
	serve := func() ([]outcome, Stats) {
		jl, err := ledger.Open(dir, ledger.Options{Seed: 23, Fsync: ledger.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(t, 23)
		cfg.Journal, cfg.ResultCacheSize = jl, -1
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		out := make([]outcome, len(orderByQueries))
		for i, q := range orderByQueries {
			h, err := e.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := h.wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = outcome{cols: ans.Columns, rows: ans.Rows, rep: ans.Report}
		}
		return out, e.Stats()
	}
	cold, st := serve()
	if st.AssignmentsIssued == 0 {
		t.Fatal("the cold run issued no assignments")
	}
	jl, err := ledger.Open(dir, ledger.Options{Seed: 23, Fsync: ledger.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	comparisons := 0
	for _, v := range jl.Verdicts() {
		if strings.Contains(v.Key, "\x1fcmp\x1f") {
			comparisons++
		}
	}
	jl.Close()
	if comparisons == 0 {
		t.Fatal("the ledger holds no comparison")
	}
	warm, st := serve()
	if st.AssignmentsIssued != 0 {
		t.Fatalf("warm restart issued %d assignments", st.AssignmentsIssued)
	}
	sameCharges(t, "warm restart", warm, cold)
}

// sameCharges is sameOutcomes without the sharing telemetry: which
// tasks were coalesced or cached is the scheduler's and the caches'
// business, what a query returns and is charged is not.
func sameCharges(t *testing.T, label string, got, want []outcome) {
	t.Helper()
	for i := range want {
		g, w := toWire(got[i]), toWire(want[i])
		g.cachedTasks, g.coalesced, w.cachedTasks, w.coalesced = 0, 0, 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: query %d:\ngot  %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestVerdictLRU checks bound, eviction order and refresh-on-get.
func TestVerdictLRU(t *testing.T) {
	l := newVerdictLRU(2)
	l.put("a", exec.TaskVerdict{Assignments: 1})
	l.put("b", exec.TaskVerdict{Assignments: 2})
	if _, ok := l.get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	l.put("c", exec.TaskVerdict{Assignments: 3}) // evicts b
	if _, ok := l.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := l.get("a"); !ok {
		t.Fatal("a evicted despite refresh")
	}
	if v, ok := l.get("c"); !ok || v.Assignments != 3 {
		t.Fatalf("c = %+v, %v", v, ok)
	}
	if l.len() != 2 {
		t.Fatalf("len = %d, want 2", l.len())
	}
}

// TestCachedAnswerCarriesNoTrace: with tracing on, the answer cache holds
// the owner's rows and report but neither its span tree nor its request
// id, while the owner's own Result keeps both; a later hit gets its own
// request id and no trace.
func TestCachedAnswerCarriesNoTrace(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	cfg := testConfig(t, 5)
	cfg.Tracing = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := dataset.Queries("paper")["2J"]
	submit := func(req string) *Answer {
		t.Helper()
		h, err := e.Submit(reqid.With(context.Background(), reqid.Correlation{RequestID: req}), q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := h.wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	owner := submit("req-owner")
	if owner.Trace == nil || owner.RequestID != "req-owner" {
		t.Fatalf("owner: trace %v, request id %q", owner.Trace != nil, owner.RequestID)
	}
	if res := owner.Result(); res.Trace == nil {
		t.Fatal("owner's Result lost its trace")
	}
	st, err := cql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	e.resMu.Lock()
	cached, ok := e.results.get(st.(*cql.Select).String())
	e.resMu.Unlock()
	if !ok {
		t.Fatal("the owner's answer is not in the cache")
	}
	if cached.Trace != nil || cached.RequestID != "" {
		t.Fatalf("cached entry pins trace %v, request id %q", cached.Trace != nil, cached.RequestID)
	}
	if cached.Report != owner.Report || len(cached.Rows) != len(owner.Rows) {
		t.Fatal("cached entry does not share the owner's rows and report")
	}
	if hit := submit("req-hit"); hit.Trace != nil || hit.RequestID != "req-hit" || hit.Report != owner.Report {
		t.Fatalf("cache hit: trace %v, request id %q", hit.Trace != nil, hit.RequestID)
	}
}

// TestTracingIsolated checks per-query span trees exist and carry the
// query text when tracing is on.
func TestTracingIsolated(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)()
	cfg := testConfig(t, 5)
	cfg.Tracing = true
	cfg.MaxInFlight = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	qs := dataset.Queries("paper")
	h1, _ := e.Submit(context.Background(), qs["2J"])
	h2, _ := e.Submit(context.Background(), qs["2J1S"])
	a1, err1 := h1.wait(context.Background())
	a2, err2 := h2.wait(context.Background())
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if a1.Trace == nil || a2.Trace == nil {
		t.Fatal("tracing on but no trace attached")
	}
	if a1.Trace.Spans[0].Query != qs["2J"] || a2.Trace.Spans[0].Query != qs["2J1S"] {
		t.Fatal("trace root does not carry its own query")
	}
}
