package engine

import (
	"context"
	"testing"
	"time"
)

// TestIntrospectionLifecycle walks one entry through
// admit → start → roundDone → finish and checks the registry's view at
// each step.
func TestIntrospectionLifecycle(t *testing.T) {
	in := newIntrospection(4)
	e := in.admit("req-1", "SELECT 1")

	snap := in.snapshot(false)
	if len(snap.InFlight) != 1 || len(snap.Recent) != 0 {
		t.Fatalf("after admit: %d in-flight, %d recent; want 1, 0", len(snap.InFlight), len(snap.Recent))
	}
	st := snap.InFlight[0]
	if st.State != StateQueued || st.RequestID != "req-1" || st.Statement != "SELECT 1" {
		t.Errorf("queued status = %+v", st)
	}

	in.start(e)
	in.roundDone(e, 2, 10, 50, 3)
	st = in.snapshot(false).InFlight[0]
	if st.State != StateRunning || st.Rounds != 2 || st.Tasks != 10 || st.Assignments != 50 || st.Open != 3 {
		t.Errorf("running status = %+v", st)
	}

	// Draining repaints running entries only at snapshot time.
	if got := in.snapshot(true).InFlight[0].State; got != StateDraining {
		t.Errorf("draining snapshot state = %q, want %q", got, StateDraining)
	}

	in.finish(e, StateDone, func(st *QueryStatus) { st.HITs = 7 })
	snap = in.snapshot(false)
	if len(snap.InFlight) != 0 || len(snap.Recent) != 1 {
		t.Fatalf("after finish: %d in-flight, %d recent; want 0, 1", len(snap.InFlight), len(snap.Recent))
	}
	fin := snap.Recent[0]
	if fin.State != StateDone || fin.HITs != 7 || fin.Rounds != 2 {
		t.Errorf("finished status = %+v", fin)
	}
	if fin.ElapsedMs < 0 {
		t.Errorf("negative elapsed: %d", fin.ElapsedMs)
	}
}

// TestIntrospectionRing pins the recent ring: bounded capacity, most
// recent first, oldest evicted.
func TestIntrospectionRing(t *testing.T) {
	in := newIntrospection(2)
	for i := 0; i < 3; i++ {
		e := in.admit("", "q")
		in.start(e)
		in.finish(e, StateDone, nil)
	}
	snap := in.snapshot(false)
	if len(snap.Recent) != 2 {
		t.Fatalf("recent len = %d, want capacity 2", len(snap.Recent))
	}
	if snap.Recent[0].ID != 3 || snap.Recent[1].ID != 2 {
		t.Errorf("recent order = [%d %d], want [3 2] (most recent first)", snap.Recent[0].ID, snap.Recent[1].ID)
	}
}

// TestIntrospectionInFlightOrder pins the deterministic admission-order
// sort of the live table.
func TestIntrospectionInFlightOrder(t *testing.T) {
	in := newIntrospection(recentQueries)
	var entries []*queryEntry
	for i := 0; i < 5; i++ {
		entries = append(entries, in.admit("", "q"))
	}
	snap := in.snapshot(false)
	for i, st := range snap.InFlight {
		if st.ID != int64(i+1) {
			t.Fatalf("in-flight[%d].ID = %d, want %d", i, st.ID, i+1)
		}
	}
	for _, e := range entries {
		in.finish(e, StateFailed, nil)
	}
}

// TestEngineIntrospectE2E runs a real query through the engine and
// checks it lands in the recent ring with final economics.
func TestEngineIntrospectE2E(t *testing.T) {
	e, err := New(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	h, err := e.Submit(ctx, workload()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.wait(ctx); err != nil {
		t.Fatal(err)
	}
	// finish() runs on the serve goroutine after the handle completes;
	// poll briefly for the retirement.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := e.Queries()
		if len(snap.Recent) == 1 {
			fin := snap.Recent[0]
			if fin.State != StateDone {
				t.Errorf("state = %q, want done", fin.State)
			}
			if fin.Rounds < 1 || fin.Tasks < 1 || fin.HITs < 1 {
				t.Errorf("economics = %+v, want rounds/tasks/hits >= 1", fin)
			}
			if len(snap.InFlight) != 0 {
				t.Errorf("completed query still in-flight: %+v", snap.InFlight)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never retired into the recent ring: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
}
