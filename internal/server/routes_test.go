package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouteInventory lists every route cdbd mounts and pins that nothing
// else answers: each listed route is served by its own pattern with a
// 200, and the verdict-import and fleet endpoints of earlier builds are
// 404s.
func TestRouteInventory(t *testing.T) {
	srv, _, _ := newTestServer(t, newTestDB(t))
	body := `{"query":"` + testQueries[0] + `"}`
	mounted := []struct {
		method, path, pattern, body string
	}{
		{http.MethodPost, "/v1/query", "/v1/query", body},
		{http.MethodPost, "/v1/query/stream", "/v1/query/stream", body},
		{http.MethodPost, "/v1/explain", "/v1/explain", body},
		{http.MethodGet, "/v1/tables", "/v1/tables", ""},
		{http.MethodGet, "/v1/queries", "/v1/queries", ""},
		{http.MethodGet, "/healthz", "/healthz", ""},
		{http.MethodGet, "/metrics", "/metrics", ""},
		{http.MethodGet, "/debug/vars", "/debug/", ""},
	}
	for _, r := range mounted {
		req := httptest.NewRequest(r.method, r.path, strings.NewReader(r.body))
		if _, pattern := srv.mux.Handler(req); pattern != r.pattern {
			t.Errorf("%s %s: served by pattern %q, want %q", r.method, r.path, pattern, r.pattern)
		}
		rw := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Errorf("%s %s: HTTP %d, want 200: %s", r.method, r.path, rw.Code, rw.Body)
		}
	}

	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/v1/cache/apply"},
		{http.MethodGet, "/v1/cache/delta"},
		{http.MethodPost, "/v1/cluster/exec"},
		{http.MethodPost, "/v1/cluster/exec/stream"},
		{http.MethodGet, "/v1/cluster/health"},
		{http.MethodGet, "/v1/cluster/shards"},
	} {
		rw := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rw, httptest.NewRequest(r.method, r.path, strings.NewReader("[]")))
		if rw.Code != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", r.method, r.path, rw.Code)
		}
	}
}
