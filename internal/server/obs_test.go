package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cdb"
	"cdb/client"
)

// TestRequestIDRoundTrip pins the correlation contract end to end: a
// client-supplied X-CDB-Request-ID is echoed on the response header,
// lands on the wire Result, and — on the engine side, where traces
// live (they are json:"-" and never cross the wire) — stamps the root
// span of the query's trace. One key joins the wire artifacts to the
// execution artifacts.
func TestRequestIDRoundTrip(t *testing.T) {
	_, eng, hs := newTestServer(t, newTestDB(t, cdb.WithTracing(true)))
	defer eng.Close()
	c := client.New(hs.URL)

	const id = "test-correlation-0042"
	ctx := cdb.ContextWithRequestID(context.Background(), id)
	res, err := c.Query(ctx, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != id {
		t.Errorf("Result.RequestID = %q, want %q", res.RequestID, id)
	}

	// Trace-span stamping, asserted where the trace is reachable: a
	// query submitted on the engine under the same correlation context.
	fut, err := eng.Submit(ctx, testQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	local, err := fut.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if local.RequestID != id {
		t.Errorf("engine Result.RequestID = %q, want %q", local.RequestID, id)
	}
	if local.Trace == nil || len(local.Trace.Spans) == 0 {
		t.Fatal("traced engine returned no trace")
	}
	if local.Trace.RequestID != id {
		t.Errorf("Trace.RequestID = %q, want %q", local.Trace.RequestID, id)
	}
	root := local.Trace.Spans[0]
	if root.Name != cdb.SpanQuery {
		t.Fatalf("first span = %q, want root %q", root.Name, cdb.SpanQuery)
	}
	if root.Req != id {
		t.Errorf("root span Req = %q, want %q", root.Req, id)
	}
	for _, sp := range local.Trace.Spans {
		if sp.Req != id {
			t.Errorf("span %s Req = %q, want %q", sp.Name, sp.Req, id)
		}
	}

	// Header echo, observed on the raw wire.
	body := bytes.NewBufferString(`{"query":"SELECT * FROM Paper, Researcher WHERE Paper.author CROWDJOIN Researcher.name;"}`)
	hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/query", body)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(client.HeaderRequestID, id)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(client.HeaderRequestID); got != id {
		t.Errorf("response %s = %q, want %q", client.HeaderRequestID, got, id)
	}
	if tp := resp.Header.Get(client.HeaderTraceParent); tp == "" {
		t.Errorf("response carries no traceparent")
	}
}

// TestMintedRequestIDsUnique hits the server concurrently without
// supplying IDs and requires every minted ID be distinct — the whole
// point of a correlation ID is that it names exactly one request.
func TestMintedRequestIDsUnique(t *testing.T) {
	_, eng, hs := newTestServer(t, newTestDB(t))
	defer eng.Close()

	const n = 32
	var mu sync.Mutex
	seen := make(map[string]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(hs.URL + "/v1/tables")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			id := resp.Header.Get(client.HeaderRequestID)
			mu.Lock()
			seen[id]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Errorf("%d requests produced %d distinct IDs: %v", n, len(seen), seen)
	}
	for id, count := range seen {
		if id == "" {
			t.Error("server responded without a minted request ID")
		}
		if count > 1 {
			t.Errorf("ID %q minted %d times", id, count)
		}
	}
}

// TestStatusClassCounters pins the by-class request accounting: a
// success bumps 2xx, a malformed body bumps 4xx, and an overload shed
// bumps 429 — each exclusively.
func TestStatusClassCounters(t *testing.T) {
	gate := &gateOracle{release: make(chan struct{})}
	db := newTestDB(t, cdb.WithOracle(gate))
	_, eng, hs := newTestServer(t, db,
		cdb.WithMaxInFlight(1), cdb.WithMaxQueue(1), cdb.WithResultCache(-1))
	defer eng.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	base2xx, base4xx, base429 := mReq2xx.Value(), mReq4xx.Value(), mReq429.Value()

	if _, err := c.Query(ctx, testQueries[0]); err != nil {
		t.Fatal(err)
	}
	if d := mReq2xx.Value() - base2xx; d != 1 {
		t.Errorf("2xx delta after success = %d, want 1", d)
	}

	resp, err := http.Post(hs.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := mReq4xx.Value() - base4xx; d != 1 {
		t.Errorf("4xx delta after bad body = %d, want 1", d)
	}

	// Fill the 1 in-flight + 1 queued slots with gate-wedged queries,
	// confirmed via introspection, then overflow deterministically.
	gate.hold.Store(true)
	wedged := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		go func(i int) {
			_, err := c.Query(ctx, testQueries[i])
			wedged <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("wedged queries never filled the admission slots")
		}
		qr, err := c.Queries(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(qr.InFlight) >= 2 {
			break
		}
	}
	if _, err := c.Query(ctx, testQueries[3]); err == nil {
		t.Fatal("expected overload, query succeeded")
	}
	if d := mReq429.Value() - base429; d != 1 {
		t.Errorf("429 delta after shed = %d, want 1", d)
	}
	if d := mReq4xx.Value() - base4xx; d != 1 {
		t.Errorf("429 leaked into the 4xx class: delta = %d, want 1", d)
	}
	close(gate.release)
	for i := 0; i < 2; i++ {
		if err := <-wedged; err != nil {
			t.Errorf("wedged query failed after release: %v", err)
		}
	}
}

// TestQueriesEndpoint pins live introspection end to end: a wedged
// query is visible in /v1/queries as in-flight with its request ID and
// statement, and after completion it moves to the recent ring with
// final rounds and HIT economics.
func TestQueriesEndpoint(t *testing.T) {
	gate := &gateOracle{release: make(chan struct{})}
	db := newTestDB(t, cdb.WithOracle(gate))
	_, eng, hs := newTestServer(t, db, cdb.WithResultCache(-1))
	defer eng.Close()
	c := client.New(hs.URL)
	const id = "introspect-e2e-1"

	gate.hold.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(cdb.ContextWithRequestID(context.Background(), id), testQueries[0])
		done <- err
	}()

	// The query wedges on the gated oracle during planning: it must
	// appear in-flight as running.
	var inflight *client.QueryInfo
	deadline := time.Now().Add(5 * time.Second)
	for inflight == nil {
		if time.Now().After(deadline) {
			t.Fatal("wedged query never appeared in /v1/queries")
		}
		qr, err := c.Queries(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, qi := range qr.InFlight {
			if qi.RequestID == id {
				inflight = &qr.InFlight[i]
			}
		}
	}
	if inflight.State != "running" && inflight.State != "queued" {
		t.Errorf("in-flight state = %q, want running or queued", inflight.State)
	}
	if !strings.Contains(inflight.Query, "CROWDJOIN") {
		t.Errorf("in-flight statement = %q, want the submitted CQL", inflight.Query)
	}

	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	qr, err := c.Queries(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var recent *client.QueryInfo
	for i, qi := range qr.Recent {
		if qi.RequestID == id {
			recent = &qr.Recent[i]
		}
	}
	if recent == nil {
		t.Fatalf("completed query missing from recent ring: %+v", qr.Recent)
	}
	if recent.State != "done" {
		t.Errorf("recent state = %q, want done", recent.State)
	}
	if recent.Rounds < 1 || recent.HITs < 1 {
		t.Errorf("recent economics rounds=%d hits=%d, want both >= 1", recent.Rounds, recent.HITs)
	}
	for _, qi := range qr.InFlight {
		if qi.RequestID == id {
			t.Error("completed query still listed in-flight")
		}
	}
}

// syncBuffer guards a bytes.Buffer for cross-goroutine writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestQueryLog pins the structured query log: one JSONL line per
// completed query carrying the request ID, statement, terminal status
// and crowd economics; failures log their mapped status and message;
// and the slowness threshold suppresses fast queries.
func TestQueryLog(t *testing.T) {
	db := newTestDB(t)
	eng, err := db.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var logbuf syncBuffer
	srv, err := New(Config{DB: db, Engine: eng, QueryLog: NewQueryLog(&logbuf, 0)})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)

	const id = "qlog-test-7"
	ctx := cdb.ContextWithRequestID(context.Background(), id)
	if _, err := c.Query(ctx, testQueries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELEKT nonsense"); err == nil {
		t.Fatal("malformed query succeeded")
	}

	var entries []QueryLogEntry
	sc := bufio.NewScanner(strings.NewReader(logbuf.String()))
	for sc.Scan() {
		var e QueryLogEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad query-log line %q: %v", sc.Text(), err)
		}
		entries = append(entries, e)
	}
	if len(entries) != 2 {
		t.Fatalf("query log has %d entries, want 2:\n%s", len(entries), logbuf.String())
	}

	ok, bad := entries[0], entries[1]
	if ok.RequestID != id || ok.Endpoint != "query" || ok.Status != 200 {
		t.Errorf("success entry = %+v, want request_id=%s endpoint=query status=200", ok, id)
	}
	if ok.Rounds < 1 || ok.HITs < 1 {
		t.Errorf("success entry economics rounds=%d hits=%d, want both >= 1", ok.Rounds, ok.HITs)
	}
	if ok.TS == "" {
		t.Error("success entry has no timestamp")
	}
	if bad.Status != 400 || bad.Error == "" {
		t.Errorf("failure entry = %+v, want status=400 with an error message", bad)
	}

	// A high slowness threshold suppresses everything.
	var quiet syncBuffer
	srv.qlog = NewQueryLog(&quiet, time.Hour)
	if _, err := c.Query(ctx, testQueries[1]); err != nil {
		t.Fatal(err)
	}
	if quiet.String() != "" {
		t.Errorf("sub-threshold query logged: %s", quiet.String())
	}
}
