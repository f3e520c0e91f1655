package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdb"
	"cdb/client"
)

// testQueries are textually distinct SELECTs over the running-example
// dataset, so no two share whole answers in the engine's result cache.
var testQueries = []string{
	`SELECT * FROM Paper, Researcher WHERE Paper.author CROWDJOIN Researcher.name;`,
	`SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title;`,
	`SELECT * FROM Researcher, University WHERE Researcher.affiliation CROWDJOIN University.name;`,
	`SELECT Paper.title, Researcher.name FROM Paper, Researcher, Citation
	   WHERE Paper.author CROWDJOIN Researcher.name AND Paper.title CROWDJOIN Citation.title;`,
}

// newTestDB opens the canonical test instance. Equal seeds must yield
// bit-identical verdicts no matter which side of the wire runs them.
func newTestDB(t testing.TB, opts ...cdb.Option) *cdb.DB {
	t.Helper()
	db := cdb.Open(append([]cdb.Option{
		cdb.WithDataset("example", 0, 1),
		cdb.WithWorkers(30, 0.9, 0.05),
		cdb.WithSeed(7),
	}, opts...)...)
	if err := db.Err(); err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestServer(t *testing.T, db *cdb.DB, eopts ...cdb.EngineOption) (*Server, *cdb.Engine, *httptest.Server) {
	t.Helper()
	eng, err := db.NewEngine(eopts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: db, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, eng, hs
}

// TestServerDeterminism is the wire-transparency guarantee: for the
// same engine seed, results fetched through cdbd over HTTP are
// bit-identical — rows, Stats, Confidence, Message — to in-process
// Engine.Submit.
func TestServerDeterminism(t *testing.T) {
	ctx := context.Background()

	// In-process reference: same DB options, its own engine.
	refDB := newTestDB(t)
	refEng, err := refDB.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer refEng.Close()
	var want []*cdb.Result
	for _, q := range testQueries {
		fut, err := refEng.Submit(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Result(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// Server-mediated: an identically-seeded DB behind HTTP.
	_, eng, hs := newTestServer(t, newTestDB(t))
	defer eng.Close()
	c := client.New(hs.URL)
	for i, q := range testQueries {
		got, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got.Trace, want[i].Trace = nil, nil
		// The server mints a fresh correlation ID per request; identity
		// lives outside the determinism contract.
		got.RequestID, want[i].RequestID = "", ""
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("query %d: server-mediated result differs from in-process\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestServerStreamRounds runs 8 concurrent streaming clients and pins
// the core stream invariant: the number of round events delivered to
// each client equals its final Stats.Rounds, and rounds arrive in
// order with monotone totals.
func TestServerStreamRounds(t *testing.T) {
	_, eng, hs := newTestServer(t, newTestDB(t))
	defer eng.Close()
	ctx := context.Background()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := client.New(hs.URL)
			q := testQueries[i%len(testQueries)]
			var rounds []cdb.RoundUpdate
			res, err := c.QueryStream(ctx, q, func(u cdb.RoundUpdate) { rounds = append(rounds, u) })
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			if len(rounds) != res.Stats.Rounds {
				errs <- fmt.Errorf("client %d: %d round events, final Stats.Rounds %d", i, len(rounds), res.Stats.Rounds)
				return
			}
			for j, u := range rounds {
				if u.Round != j+1 {
					errs <- fmt.Errorf("client %d: event %d has round %d", i, j, u.Round)
					return
				}
			}
			if n := len(rounds); n > 0 {
				last := rounds[n-1]
				if last.TasksTotal != res.Stats.Tasks {
					// The final strategy probe can add extra-task
					// accounting after the last round only for ER
					// baselines, which the engine does not run: totals
					// must agree.
					errs <- fmt.Errorf("client %d: last event TasksTotal %d, Stats.Tasks %d", i, last.TasksTotal, res.Stats.Tasks)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// slowOracle pins every ground-truth probe with a delay, stretching
// planning so tests can hold queries in flight deterministically.
type slowOracle struct{ delay time.Duration }

func (o slowOracle) JoinMatch(_, _, _, _, l, r string) bool {
	time.Sleep(o.delay)
	return strings.EqualFold(l, r)
}
func (o slowOracle) SelMatch(_, _, v, c string) bool {
	time.Sleep(o.delay)
	return strings.EqualFold(v, c)
}

// gateOracle blocks every ground-truth probe on release while hold is
// set, wedging admitted queries in planning so an overload test can
// count sheds without racing query completion.
type gateOracle struct {
	hold    atomic.Bool
	release chan struct{}
}

func (o *gateOracle) wait() {
	if o.hold.Load() {
		<-o.release
	}
}
func (o *gateOracle) JoinMatch(_, _, _, _, l, r string) bool {
	o.wait()
	return strings.EqualFold(l, r)
}
func (o *gateOracle) SelMatch(_, _, v, c string) bool {
	o.wait()
	return strings.EqualFold(v, c)
}

// TestServerOverload maps admission control onto HTTP: requests beyond
// MaxInFlight+MaxQueue shed with 429 + Retry-After (and unwrap to
// cdb.ErrOverloaded), while sequential submissions — never above the
// in-flight bound — must see no 429 at all. The gated oracle makes the
// count exact: the engine's admit token is held until a query
// finishes, and no admitted query can finish while the gate is down,
// so a burst of 8 against capacity 2 sheds exactly 6.
func TestServerOverload(t *testing.T) {
	gate := &gateOracle{release: make(chan struct{})}
	db := newTestDB(t, cdb.WithOracle(gate))
	// The result cache is disabled so admitted burst queries execute
	// (and wedge on the gate) instead of returning a shared answer.
	_, eng, hs := newTestServer(t, db,
		cdb.WithMaxInFlight(1), cdb.WithMaxQueue(1), cdb.WithResultCache(-1))
	defer eng.Close()
	ctx := context.Background()
	c := client.New(hs.URL)

	// Below capacity: sequential queries never overlap, no 429s.
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, testQueries[i]); err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
	}

	// Above capacity: 8 concurrent queries against 1 in-flight + 1
	// queued slots, with the slot holders wedged on the gate.
	gate.hold.Store(true)
	const burst = 8
	const capacity = 2
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			_, err := c.Query(ctx, testQueries[i%len(testQueries)])
			errs <- err
		}(i)
	}

	// Exactly burst-capacity requests shed — and they must shed, since
	// both admitted queries are wedged until the gate opens.
	for i := 0; i < burst-capacity; i++ {
		err := <-errs
		if !errors.Is(err, cdb.ErrOverloaded) {
			t.Fatalf("over-capacity request %d = %v, want cdb.ErrOverloaded", i, err)
		}
		var ae *client.APIError
		if !errors.As(err, &ae) {
			t.Fatalf("shed error is not an *client.APIError: %v", err)
		}
		if ae.Status != 429 {
			t.Errorf("shed status = %d, want 429", ae.Status)
		}
		if ae.RetryAfter <= 0 {
			t.Errorf("429 without a Retry-After hint")
		}
	}

	// Open the gate: both admitted queries run to completion.
	close(gate.release)
	for i := 0; i < capacity; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted query failed: %v", err)
		}
	}
}

// TestServerDrain pins graceful shutdown: every query accepted before
// the drain completes with a full result, and submissions during the
// drain shed with 503/draining.
func TestServerDrain(t *testing.T) {
	db := newTestDB(t, cdb.WithOracle(slowOracle{delay: 2 * time.Millisecond}))
	srv, eng, hs := newTestServer(t, db, cdb.WithMaxInFlight(2), cdb.WithMaxQueue(8))
	ctx := context.Background()
	c := client.New(hs.URL)

	const queries = 6
	results := make(chan error, queries)
	for i := 0; i < queries; i++ {
		go func(i int) {
			res, err := c.Query(ctx, testQueries[i%len(testQueries)])
			if err == nil && len(res.Columns) == 0 {
				err = fmt.Errorf("empty result")
			}
			results <- err
		}(i)
	}

	// Wait until the engine has admitted all six, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().Submitted < queries {
		if time.Now().After(deadline) {
			t.Fatalf("engine admitted %d of %d queries before deadline", eng.Stats().Submitted, queries)
		}
		time.Sleep(time.Millisecond)
	}
	srv.Drain()

	// Zero accepted queries lost: all six must have completed.
	for i := 0; i < queries; i++ {
		if err := <-results; err != nil {
			t.Errorf("accepted query lost to drain: %v", err)
		}
	}

	// New work is shed with 503 + draining while the handler drains.
	_, err := c.Query(ctx, testQueries[0])
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 503 || ae.Code != client.CodeDraining {
		t.Fatalf("query during drain = %v, want 503/draining", err)
	}
	if !errors.Is(err, cdb.ErrEngineClosed) {
		t.Errorf("draining error does not unwrap to cdb.ErrEngineClosed: %v", err)
	}
	// Streaming endpoint sheds identically.
	_, err = c.QueryStream(ctx, testQueries[0], nil)
	if !errors.As(err, &ae) || ae.Status != 503 {
		t.Fatalf("stream during drain = %v, want 503", err)
	}
}

// TestServerErrorMapping pins the HTTP semantics of the library's
// typed errors across the wire: parse errors carry their offset, an
// unknown table is 404, and both unwrap back to the same typed values
// a local caller would see.
func TestServerErrorMapping(t *testing.T) {
	_, eng, hs := newTestServer(t, newTestDB(t))
	defer eng.Close()
	ctx := context.Background()
	c := client.New(hs.URL)

	// CQL syntax error → 400 + *cdb.ParseError with position.
	_, err := c.Query(ctx, "SELEC * FROM Paper;")
	var pe *cdb.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("parse failure = %v, want *cdb.ParseError", err)
	}
	if pe.Offset != 0 || pe.Near != "SELEC" {
		t.Errorf("ParseError = offset %d near %q, want offset 0 near \"SELEC\"", pe.Offset, pe.Near)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Errorf("parse failure status = %v, want 400", err)
	}

	// Unknown table → 404 + cdb.ErrUnknownTable.
	_, err = c.Query(ctx, "SELECT * FROM Nonesuch, Paper WHERE Nonesuch.a CROWDJOIN Paper.title;")
	if !errors.Is(err, cdb.ErrUnknownTable) {
		t.Fatalf("unknown table = %v, want cdb.ErrUnknownTable", err)
	}
	if !errors.As(err, &ae) || ae.Status != 404 {
		t.Errorf("unknown-table status = %v, want 404", err)
	}

	// Unsupported statement → 400 + cdb.ErrEngineUnsupported.
	_, err = c.Query(ctx, "FILL Researcher.gender;")
	if !errors.Is(err, cdb.ErrEngineUnsupported) {
		t.Fatalf("unsupported statement = %v, want cdb.ErrEngineUnsupported", err)
	}

	// Tables endpoint lists the catalog.
	tables, err := c.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Citation", "Paper", "Researcher", "University"}
	if !reflect.DeepEqual(tables, want) {
		t.Errorf("Tables() = %v, want %v", tables, want)
	}
}

// TestServerSharedIdentical submits the same statement twice and pins
// that the whole-answer share is served bit-identically (modulo the
// sharing message suffix the engine itself documents).
func TestServerSharedIdentical(t *testing.T) {
	_, eng, hs := newTestServer(t, newTestDB(t))
	defer eng.Close()
	ctx := context.Background()
	c := client.New(hs.URL)

	first, err := c.Query(ctx, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Query(ctx, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) || !reflect.DeepEqual(first.Columns, second.Columns) {
		t.Errorf("identical statement served different answers across the wire")
	}
	if eng.Stats().QueriesCached+eng.Stats().QueriesAttached == 0 {
		t.Errorf("second identical query did not share the whole answer")
	}
}

// TestServerExplain pins POST /v1/explain and the EXPLAIN-first query
// API over the wire: the plan round-trips (directly and via the
// EXPLAIN verb), spends zero crowd work, non-SELECT targets map to a
// typed 400, and planner-enabled streams lead with a "plan" event.
func TestServerExplain(t *testing.T) {
	ctx := context.Background()
	_, eng, hs := newTestServer(t, newTestDB(t, cdb.WithPlanner(true)))
	defer eng.Close()
	c := client.New(hs.URL)

	p, err := c.Explain(ctx, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !p.Greedy || p.JoinOrder == "" || len(p.Steps) == 0 {
		t.Fatalf("explain plan = %+v, want a populated greedy plan", p)
	}
	if p.PredictedTasks <= 0 {
		t.Errorf("predicted tasks = %d, want > 0", p.PredictedTasks)
	}

	// The EXPLAIN verb unwraps to the same plan.
	pv, err := c.Explain(ctx, "EXPLAIN "+testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if pv.JoinOrder != p.JoinOrder || pv.PredictedTasks != p.PredictedTasks {
		t.Errorf("EXPLAIN verb plan %q/%d differs from direct %q/%d",
			pv.JoinOrder, pv.PredictedTasks, p.JoinOrder, p.PredictedTasks)
	}

	// Zero crowd spend: explaining registers no query and issues no work.
	qs, err := c.Queries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs.InFlight)+len(qs.Recent) != 0 {
		t.Errorf("explain registered queries: in-flight %d, recent %d", len(qs.InFlight), len(qs.Recent))
	}
	if st := eng.Stats(); st.AssignmentsIssued != 0 {
		t.Errorf("explain issued %d crowd assignments, want 0", st.AssignmentsIssued)
	}

	// Non-SELECT target → typed 400 unwrapping to ErrEngineUnsupported.
	_, err = c.Explain(ctx, "CREATE TABLE X (a varchar(8));")
	if !errors.Is(err, cdb.ErrEngineUnsupported) {
		t.Fatalf("explain DDL = %v, want cdb.ErrEngineUnsupported", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 400 || ae.Code != client.CodeUnsupported {
		t.Errorf("explain DDL error = %+v, want status 400 code %q", ae, client.CodeUnsupported)
	}

	// Planner-enabled streams emit the plan before any round, and the
	// executed query's Result carries the same plan.
	var sawPlan *cdb.Plan
	rounds := 0
	res, err := c.QueryStream(ctx, testQueries[0], func(cdb.RoundUpdate) { rounds++ })
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Plan.JoinOrder != p.JoinOrder {
		t.Fatalf("streamed result plan = %+v, want join order %q", res.Plan, p.JoinOrder)
	}
	sawPlan = streamPlanEvent(t, hs.URL, testQueries[0])
	if sawPlan == nil || sawPlan.JoinOrder != p.JoinOrder {
		t.Errorf("first stream event plan = %+v, want join order %q", sawPlan, p.JoinOrder)
	}
	_ = rounds
}

// streamPlanEvent posts one streaming query and returns the plan from
// its first event, failing if the first event is not a "plan".
func streamPlanEvent(t *testing.T, baseURL, query string) *cdb.Plan {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/query/stream", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query":%q}`, query)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev client.StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != client.EventPlan {
			t.Fatalf("first stream event type %q, want %q", ev.Type, client.EventPlan)
		}
		io.Copy(io.Discard, resp.Body)
		return ev.Plan
	}
	t.Fatal("stream ended without events")
	return nil
}
