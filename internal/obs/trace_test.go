package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// collectObs records spans in arrival (end) order.
type collectObs struct{ spans []Span }

func (c *collectObs) ObserveSpan(s Span) { c.spans = append(c.spans, s) }

func TestTracerNesting(t *testing.T) {
	var obs collectObs
	tr := NewTracer(&obs)
	root := tr.Begin(SpanQuery)
	parse := tr.Begin(SpanParse)
	tr.End(parse)
	round := tr.Begin(SpanRound)
	score := tr.Begin(SpanScore)
	tr.End(score)
	issue := tr.Begin(SpanIssue)
	tr.Mutate(issue, func(s *Span) { s.Tasks = 7; s.Asks = 35 })
	tr.End(issue)
	tr.Mutate(round, func(s *Span) { s.Round = 1 })
	tr.End(round)
	tr.End(root)
	trace := tr.Finish()

	if len(trace.Spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(trace.Spans))
	}
	byName := map[string]Span{}
	for _, s := range trace.Spans {
		byName[s.Name] = s
	}
	if byName[SpanParse].Parent != byName[SpanQuery].ID {
		t.Errorf("parse parent = %d, want query %d", byName[SpanParse].Parent, byName[SpanQuery].ID)
	}
	if byName[SpanScore].Parent != byName[SpanRound].ID {
		t.Errorf("score parent = %d", byName[SpanScore].Parent)
	}
	if byName[SpanRound].Parent != byName[SpanQuery].ID {
		t.Errorf("round parent = %d", byName[SpanRound].Parent)
	}
	if byName[SpanQuery].Parent != -1 {
		t.Errorf("root parent = %d, want -1", byName[SpanQuery].Parent)
	}
	if byName[SpanIssue].Tasks != 7 || byName[SpanIssue].Asks != 35 {
		t.Errorf("issue counts = %+v", byName[SpanIssue])
	}
}

// TestTracerEventOrdering checks both orderings the schema promises:
// the collected trace lists spans in begin order with monotone start
// offsets, and the observer sees them in end order (children first).
func TestTracerEventOrdering(t *testing.T) {
	var obs collectObs
	tr := NewTracer(&obs)
	root := tr.Begin(SpanQuery)
	for r := 1; r <= 3; r++ {
		round := tr.Begin(SpanRound)
		tr.Event("cache-reset", nil)
		inner := tr.Begin(SpanScore)
		tr.End(inner)
		tr.Mutate(round, func(s *Span) { s.Round = r })
		tr.End(round)
	}
	tr.End(root)
	trace := tr.Finish()

	for i, s := range trace.Spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d: collected order must be begin order", i, s.ID)
		}
		if i > 0 && s.Start < trace.Spans[i-1].Start {
			t.Fatalf("span %d starts before its predecessor (%d < %d)", i, s.Start, trace.Spans[i-1].Start)
		}
		if s.Kind == "span" && s.Dur < 0 {
			t.Fatalf("span %d not closed: dur=%d", i, s.Dur)
		}
	}
	rounds := trace.ByName(SpanRound)
	if len(rounds) != 3 {
		t.Fatalf("rounds = %d", len(rounds))
	}
	for i, s := range rounds {
		if s.Round != i+1 {
			t.Fatalf("round span %d has Round=%d", i, s.Round)
		}
	}
	// Observer order: every child ends (and is observed) before its
	// parent; the root arrives last.
	seen := map[int]bool{}
	for _, s := range obs.spans {
		seen[s.ID] = true
	}
	for _, s := range obs.spans {
		for _, child := range trace.Spans {
			if child.Parent == s.ID && child.Kind == "span" && !seen[child.ID] {
				t.Fatalf("parent %q observed before child %q", s.Name, child.Name)
			}
		}
	}
	if last := obs.spans[len(obs.spans)-1]; last.Name != SpanQuery {
		t.Fatalf("last observed span = %q, want root", last.Name)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(SpanQuery)
	if id != NoSpan {
		t.Fatalf("nil Begin returned %d", id)
	}
	tr.Mutate(id, func(s *Span) { s.Tasks = 1 })
	tr.Event("x", nil)
	tr.End(id)
	if tr.Finish() != nil {
		t.Fatal("nil Finish should return nil")
	}
	if tr.TraceID() != 0 {
		t.Fatal("nil TraceID should be 0")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	tr := NewTracer(w)
	root := tr.Begin(SpanQuery)
	tr.Mutate(root, func(s *Span) { s.Query = "SELECT 1;" })
	round := tr.Begin(SpanRound)
	tr.Mutate(round, func(s *Span) { s.Round = 1; s.Tasks = 3 })
	tr.End(round)
	tr.End(root)
	trace := tr.Finish()
	if w.Err() != nil {
		t.Fatal(w.Err())
	}

	sc := bufio.NewScanner(&buf)
	var lines []Span
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, s)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	// Streamed (end-order) content must match the collected trace.
	byID := map[int]Span{}
	for _, s := range trace.Spans {
		byID[s.ID] = s
	}
	for _, got := range lines {
		if want := byID[got.ID]; got != want {
			t.Fatalf("streamed span %+v != collected %+v", got, want)
		}
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	tr := NewTracer(nil)
	tr.Begin(SpanQuery)
	tr.Begin(SpanRound) // never ended
	trace := tr.Finish()
	for _, s := range trace.Spans {
		if s.Dur < 0 {
			t.Fatalf("span %q left open after Finish", s.Name)
		}
	}
}
