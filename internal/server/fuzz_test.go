package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryBody posts arbitrary bytes to /v1/explain and /v1/query
// through Server.Handler over the running-example dataset. No body may
// panic a handler, none may draw a 5xx other than 503 (draining) or 504
// (deadline), and every response body must be JSON.
func FuzzQueryBody(f *testing.F) {
	db := newTestDB(f)
	eng, err := db.NewEngine()
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { eng.Close() })
	srv, err := New(Config{DB: db, Engine: eng})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	for _, q := range testQueries {
		body, _ := json.Marshal(map[string]string{"query": q})
		f.Add(body)
	}
	for _, seed := range []string{
		``,
		`{not json`,
		`null`,
		`[]`,
		`{"query":""}`,
		`{"query":"SELECT * FROM Nope;"}`,
		`{"query":"EXPLAIN CREATE TABLE C (z varchar(8));"}`,
		`{"query":"SELECT * FROM Paper;","timeout_ms":-1}`,
		`{"query":"SELECT * FROM Paper;","timeout_ms":1e30}`,
		`{"query":"SELECT * FROM Paper, Researcher WHERE Paper.author CROWDJOIN Researcher.name BUDGET 3;","timeout_ms":1}`,
		`{"query":7}`,
		`{"query":"SELECT * FROM Paper;"} trailing`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/explain", "/v1/query"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if code := rec.Code; code >= 500 && code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
				t.Errorf("POST %s %q: status %d: %s", path, body, code, rec.Body.Bytes())
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Errorf("POST %s %q: status %d, body is not JSON: %q", path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
