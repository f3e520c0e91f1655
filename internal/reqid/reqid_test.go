package reqid

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestNewUnique mints IDs from many goroutines at once and requires
// them all distinct — the property the serving tier's correlation
// depends on. Run under -race this also exercises the mint path's
// concurrency safety.
func TestNewUnique(t *testing.T) {
	const workers, perWorker = 16, 200
	var mu sync.Mutex
	seen := make(map[string]bool, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, perWorker)
			for i := range ids {
				ids[i] = New()
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate request ID %q", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
	for id := range seen {
		if !strings.HasPrefix(id, "req-") || len(id) != 4+16 {
			t.Fatalf("malformed ID %q", id)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	c := Correlation{RequestID: "req-abc", TraceParent: NewTraceParent().String()}
	ctx := With(context.Background(), c)
	if got := From(ctx); got != c {
		t.Errorf("From(With(ctx)) = %+v, want %+v", got, c)
	}
	if got := From(context.Background()); got != (Correlation{}) {
		t.Errorf("From(empty ctx) = %+v, want zero", got)
	}
	if got := From(nil); got != (Correlation{}) { //nolint:staticcheck // nil-safety is the contract
		t.Errorf("From(nil) = %+v, want zero", got)
	}
}

func TestSanitize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"req-0123abcd", "req-0123abcd"},
		{"evil\nid\r\twith spaces", "evilidwithspaces"},
		{"\x00\x1f\x7f", ""},
		{strings.Repeat("a", 200), strings.Repeat("a", 128)},
	}
	for _, c := range cases {
		if got := Sanitize(c.in); got != c.want {
			t.Errorf("Sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tp := NewTraceParent()
	s := tp.String()
	if len(s) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", s, len(s))
	}
	back, ok := ParseTraceParent(s)
	if !ok || back != tp {
		t.Fatalf("ParseTraceParent(%q) = %+v, %v; want %+v", s, back, ok, tp)
	}

	// Child keeps the trace, renames the hop.
	ch := tp.Child()
	if ch.TraceID != tp.TraceID {
		t.Errorf("Child changed the trace ID")
	}
	if ch.ParentID == tp.ParentID {
		t.Errorf("Child kept the parent ID")
	}

	bad := []string{
		"",
		"00-short",
		"01-" + s[3:], // unknown version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
	}
	for _, b := range bad {
		if _, ok := ParseTraceParent(b); ok {
			t.Errorf("ParseTraceParent(%q) accepted malformed input", b)
		}
	}
}

// FuzzTraceParent: no input panics the parser, and every header it
// accepts renders back to itself — a continued trace never reaches the
// next hop under a different spelling. The seeds include an uppercase
// header, which the trace-context grammar excludes.
func FuzzTraceParent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tp, ok := ParseTraceParent(s)
		if ok && tp.String() != s {
			t.Fatalf("ParseTraceParent(%q) accepted a header that renders as %q", s, tp.String())
		}
	})
}
