package client

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cdb"
)

// olderResult is the Result wire body servers wrote while they could
// run transitive join inference: the stats carried an "inferred" count
// and each row a "provenance" entry. The fields are gone from Result;
// a client must still read such a body.
const olderResult = `{
  "columns": ["Paper.title", "Researcher.name"],
  "rows": [
    ["Crowdsourced Data Management", "Guoliang Li"],
    ["Truth Inference in Crowdsourcing", "Yudian Zheng"]
  ],
  "message": "2 answers, 7 tasks, 3 rounds",
  "stats": {
    "tasks": 7, "rounds": 3, "assignments": 35, "hits": 4, "dollars": 0.4,
    "precision": 0.98, "recall": 0.96, "f1": 0.9699,
    "partial": true, "reason": "deadline", "lost": 1, "retried": 2, "hedged": 3,
    "late": 4, "duplicates": 5, "rounds_truncated": 1,
    "coalesced": 6, "cached_tasks": 2, "inferred": 3
  },
  "confidence": [1, 0.875],
  "provenance": [{"crowd": 4, "inferred": 2, "prior": 1}, {"crowd": 3}],
  "request_id": "req-0123456789abcdef"
}`

// olderRound is a round event of the same servers' NDJSON stream,
// carrying the round's "inferred" count.
const olderRound = `{"type":"round","round":{"round":2,"tasks":5,"assignments":25,"blue":3,"red":2,"tasks_total":12,"assignments_total":60,"open":9,"inferred":4}}`

// TestOlderWireBodiesDecode serves the older bodies and requires Query
// and QueryStream to decode them into the current Result and
// RoundUpdate with every remaining field intact.
func TestOlderWireBodiesDecode(t *testing.T) {
	var result bytes.Buffer
	if err := json.Compact(&result, []byte(olderResult)); err != nil {
		t.Fatal(err)
	}
	stream := olderRound + "\n" + `{"type":"result","result":` + result.String() + "}\n"
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := olderResult
		if r.URL.Path == "/v1/query/stream" {
			body = stream
		}
		w.Write([]byte(body))
	}))
	defer hs.Close()

	want := &cdb.Result{
		Columns: []string{"Paper.title", "Researcher.name"},
		Rows: [][]string{
			{"Crowdsourced Data Management", "Guoliang Li"},
			{"Truth Inference in Crowdsourcing", "Yudian Zheng"},
		},
		Message: "2 answers, 7 tasks, 3 rounds",
		Stats: cdb.Stats{
			Tasks: 7, Rounds: 3, Assignments: 35, HITs: 4, Dollars: 0.4,
			Precision: 0.98, Recall: 0.96, F1: 0.9699,
			Partial: true, Reason: "deadline", Lost: 1, Retried: 2, Hedged: 3,
			Late: 4, Duplicates: 5, RoundsTruncated: 1,
			Coalesced: 6, CachedTasks: 2,
		},
		Confidence: []float64{1, 0.875},
		RequestID:  "req-0123456789abcdef",
	}
	c := New(hs.URL)
	got, err := c.Query(context.Background(), "SELECT 1;")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Query decoded\n%+v\nwant\n%+v", got, want)
	}

	var rounds []cdb.RoundUpdate
	got, err = c.QueryStream(context.Background(), "SELECT 1;", func(u cdb.RoundUpdate) { rounds = append(rounds, u) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QueryStream decoded\n%+v\nwant\n%+v", got, want)
	}
	wantRound := cdb.RoundUpdate{Round: 2, Tasks: 5, Assignments: 25, Blue: 3, Red: 2, TasksTotal: 12, AssignmentsTotal: 60, Open: 9}
	if len(rounds) != 1 || rounds[0] != wantRound {
		t.Errorf("rounds %+v, want [%+v]", rounds, wantRound)
	}
}
