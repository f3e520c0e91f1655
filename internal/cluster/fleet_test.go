package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cdb"
	"cdb/client"
	"cdb/internal/dataset"
)

// testEngine opens an engine over the shared test universe. Every call
// yields an engine with the same fingerprint: identical DB seed,
// dataset, and worker pool — the cluster compatibility contract.
func testEngine(t *testing.T, opts ...cdb.Option) *cdb.Engine {
	t.Helper()
	db := cdb.Open(append([]cdb.Option{
		cdb.WithSeed(7), cdb.WithDataset("paper", 0.1, 7), cdb.WithWorkers(50, 0.8, 0.1),
	}, opts...)...)
	e, err := db.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// testWorkload is the paper's query mix plus a repeat of the first
// statement, so the run exercises fresh crowd work, cross-statement
// verdict reuse, and the whole-answer cache.
func testWorkload() []string {
	qs := dataset.Queries("paper")
	labels := dataset.QueryLabels()
	out := make([]string, 0, len(labels)+1)
	for _, l := range labels {
		out = append(out, qs[l])
	}
	return append(out, qs[labels[0]])
}

// marshal renders a result to the exact bytes the serving layer would
// put on the wire.
func marshal(t *testing.T, res *cdb.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetBitIdentical is the tentpole invariant end to end: a
// 2-shard fleet executing the full workload returns byte-for-byte the
// results a single node produces, including Stats — which requires
// the scatter merge to be exact and verdict replication to keep every
// shard's cache as warm as the single node's would be.
func TestFleetBitIdentical(t *testing.T) {
	single := testEngine(t)
	var want []string
	for _, q := range testWorkload() {
		fut, err := single.Submit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Result(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, marshal(t, res))
	}

	shardA, shardB := testEngine(t), testEngine(t)
	fleet, err := New(Config{
		Planner:  testEngine(t),
		Backends: []Backend{NewLocalBackend("a", shardA), NewLocalBackend("b", shardB)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The workload must exercise both routes for the test to mean
	// anything: at least one statement spanning both shards and one
	// owned whole by a single shard.
	directs, scatters := 0, 0
	for _, q := range testWorkload() {
		keys, err := fleet.planner.ComponentKeys(q)
		if err != nil {
			t.Fatal(err)
		}
		owners := map[string]bool{}
		for _, k := range keys {
			owners[fleet.ring.Owner(k)] = true
		}
		if len(owners) > 1 {
			scatters++
		} else {
			directs++
		}
	}
	if scatters == 0 {
		t.Fatal("workload never scatters: test is vacuous")
	}

	for i, q := range testWorkload() {
		res, err := fleet.Exec(context.Background(), q, 0)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if got := marshal(t, res); got != want[i] {
			t.Fatalf("statement %d diverged from single node:\nfleet:  %s\nsingle: %s", i, got, want[i])
		}
	}

	// Replication pushed verdicts both ways (scattered statements pay
	// crowd work on both shards).
	if imported := shardA.Stats().RemoteImported + shardB.Stats().RemoteImported; imported == 0 {
		t.Fatal("no verdicts replicated between shards")
	}

	// Steady-state routing keeps each component on the shard that paid
	// for it, so replicated verdicts earn their keep on failover and
	// spill. Simulate one: execute a scattering statement whole on
	// shard b — the components shard a paid for must now be served from
	// b's imported remote verdicts, with zero fresh crowd spend.
	var scattered string
	for _, q := range testWorkload() {
		keys, err := fleet.planner.ComponentKeys(q)
		if err != nil {
			t.Fatal(err)
		}
		owners := map[string]bool{}
		for _, k := range keys {
			owners[fleet.ring.Owner(k)] = true
		}
		if len(owners) > 1 {
			scattered = q
			break
		}
	}
	issuedBefore := shardB.Stats().AssignmentsIssued
	fut, err := shardB.Submit(context.Background(), scattered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Result(context.Background()); err != nil {
		t.Fatal(err)
	}
	stB := shardB.Stats()
	if stB.RemoteHits == 0 {
		t.Fatal("off-owner execution produced no cross-shard cache hits")
	}
	if stB.AssignmentsIssued != issuedBefore {
		t.Fatalf("off-owner execution bought fresh crowd work: %d new assignments",
			stB.AssignmentsIssued-issuedBefore)
	}
}

// TestFleetBitIdenticalTransitive repeats the byte-for-byte comparison
// with transitive inference on: shard results then carry per-row
// Provenance and Stats.Inferred, and the merge must return both
// exactly as a single node reports them.
func TestFleetBitIdenticalTransitive(t *testing.T) {
	trans := cdb.WithTransitivity(true)
	single := testEngine(t, trans)
	fleet, err := New(Config{
		Planner:  testEngine(t, trans),
		Backends: []Backend{NewLocalBackend("a", testEngine(t, trans)), NewLocalBackend("b", testEngine(t, trans))},
	})
	if err != nil {
		t.Fatal(err)
	}
	inferred := 0
	for i, q := range testWorkload() {
		fut, err := single.Submit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fut.Result(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := fleet.Exec(context.Background(), q, 0)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if g, w := marshal(t, got), marshal(t, want); g != w {
			t.Fatalf("statement %d diverged from single node:\nfleet:  %s\nsingle: %s", i, g, w)
		}
		inferred += got.Stats.Inferred
	}
	if inferred == 0 {
		t.Fatal("workload inferred nothing: test is vacuous")
	}
}

// TestFleetStreamMergesRounds compares the merged round stream of a
// scattered statement against the single node's stream: same rounds in
// the same order with identical cumulative counters, then an identical
// final result.
func TestFleetStreamMergesRounds(t *testing.T) {
	// Find a statement that scatters across the 2-shard ring.
	planner := testEngine(t)
	ring := NewRing([]string{"a", "b"})
	var query string
	for _, q := range testWorkload() {
		keys, err := planner.ComponentKeys(q)
		if err != nil {
			t.Fatal(err)
		}
		owners := map[string]bool{}
		for _, k := range keys {
			owners[ring.Owner(k)] = true
		}
		if len(owners) > 1 {
			query = q
			break
		}
	}
	if query == "" {
		t.Fatal("no scattering statement in the workload")
	}

	single := testEngine(t)
	var wantRounds []cdb.RoundUpdate
	fut, err := single.SubmitWithProgress(context.Background(), query, func(u cdb.RoundUpdate) {
		wantRounds = append(wantRounds, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := fut.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	fleet, err := New(Config{
		Planner:  planner,
		Backends: []Backend{NewLocalBackend("a", testEngine(t)), NewLocalBackend("b", testEngine(t))},
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotRounds []cdb.RoundUpdate
	gotRes, err := fleet.ExecStream(context.Background(), query, 0, func(u cdb.RoundUpdate) {
		gotRounds = append(gotRounds, u)
	})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(gotRounds, wantRounds) {
		t.Fatalf("merged rounds diverged:\nfleet:  %+v\nsingle: %+v", gotRounds, wantRounds)
	}
	if marshal(t, gotRes) != marshal(t, wantRes) {
		t.Fatalf("stream result diverged:\nfleet:  %s\nsingle: %s", marshal(t, gotRes), marshal(t, wantRes))
	}
}

// deadBackend refuses everything, simulating a crashed shard.
type deadBackend struct{ id string }

func (d deadBackend) ID() string { return d.id }
func (d deadBackend) Exec(context.Context, ExecRequest) (*ExecResponse, error) {
	return nil, fmt.Errorf("cluster: dial %s: connection refused", d.id)
}
func (d deadBackend) ExecStream(context.Context, ExecRequest, func(cdb.RoundUpdate)) (*ExecResponse, error) {
	return nil, fmt.Errorf("cluster: dial %s: connection refused", d.id)
}
func (d deadBackend) CacheDelta(context.Context, int64) ([]cdb.CacheEntry, int64, error) {
	return nil, 0, fmt.Errorf("cluster: dial %s: connection refused", d.id)
}
func (d deadBackend) CacheApply(context.Context, []cdb.CacheEntry) (int, error) {
	return 0, fmt.Errorf("cluster: dial %s: connection refused", d.id)
}
func (d deadBackend) Health(context.Context) (*HealthResponse, error) {
	return nil, fmt.Errorf("cluster: dial %s: connection refused", d.id)
}

// TestFleetFailover kills one shard of two and demands the fleet still
// return single-node bytes: any shard can execute any slice, so losing
// a shard costs capacity, never correctness.
func TestFleetFailover(t *testing.T) {
	single := testEngine(t)
	workload := testWorkload()[:3]
	var want []string
	for _, q := range workload {
		fut, err := single.Submit(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Result(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, marshal(t, res))
	}

	fleet, err := New(Config{
		Planner:  testEngine(t),
		Backends: []Backend{NewLocalBackend("a", testEngine(t)), deadBackend{id: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range workload {
		res, err := fleet.Exec(context.Background(), q, 0)
		if err != nil {
			t.Fatalf("statement %d with a dead shard: %v", i, err)
		}
		if got := marshal(t, res); got != want[i] {
			t.Fatalf("statement %d diverged during failover:\nfleet:  %s\nsingle: %s", i, got, want[i])
		}
	}

	health := fleet.Health(context.Background())
	downSeen := false
	for _, h := range health {
		if h.ID == "b" && !h.Live && h.Error != "" {
			downSeen = true
		}
	}
	if !downSeen {
		t.Fatalf("dead shard not reported down: %+v", health)
	}
}

// overloadedBackend always sheds with 429, like a shard at its
// admission limit.
type overloadedBackend struct{ id string }

func overloadErr() error {
	return &client.APIError{Status: 429, Code: client.CodeOverloaded, Message: "engine overloaded", Offset: -1}
}
func (o overloadedBackend) ID() string { return o.id }
func (o overloadedBackend) Exec(context.Context, ExecRequest) (*ExecResponse, error) {
	return nil, overloadErr()
}
func (o overloadedBackend) ExecStream(context.Context, ExecRequest, func(cdb.RoundUpdate)) (*ExecResponse, error) {
	return nil, overloadErr()
}
func (o overloadedBackend) CacheDelta(context.Context, int64) ([]cdb.CacheEntry, int64, error) {
	return nil, 0, overloadErr()
}
func (o overloadedBackend) CacheApply(context.Context, []cdb.CacheEntry) (int, error) {
	return 0, overloadErr()
}
func (o overloadedBackend) Health(context.Context) (*HealthResponse, error) {
	return &HealthResponse{ID: o.id, Queued: 1 << 20}, nil
}

// TestFleetOverloadPropagates: when every candidate sheds, the fleet
// surfaces ErrOverloaded (so the serving layer answers 429 with
// Retry-After), not a degraded error.
func TestFleetOverloadPropagates(t *testing.T) {
	fleet, err := New(Config{
		Planner:  testEngine(t),
		Backends: []Backend{overloadedBackend{id: "a"}, overloadedBackend{id: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fleet.Exec(context.Background(), testWorkload()[0], 0)
	if !errors.Is(err, cdb.ErrOverloaded) {
		t.Fatalf("want ErrOverloaded through the fleet, got %v", err)
	}

	// All shards down is a different failure: degraded, mapped to 503.
	fleet, err = New(Config{
		Planner:  testEngine(t),
		Backends: []Backend{deadBackend{id: "a"}, deadBackend{id: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fleet.Exec(context.Background(), testWorkload()[0], 0)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("want ErrDegraded with every shard dead, got %v", err)
	}
}
