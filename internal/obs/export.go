package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative _bucket/_sum/_count series. Output
// is sorted by metric name, so equal registry states render
// byte-identically (the golden-file test relies on this).
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.Name, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.Name, g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.Name); err != nil {
			return err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, formatFloat(bound), cum); err != nil {
				return err
			}
		}
		cum += h.Counts[len(h.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.Name, formatFloat(h.Sum), h.Name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// NewServeMux builds the observability mux: the registry at /metrics,
// expvar at /debug/vars, and the runtime profiles at /debug/pprof/
// (profile, heap, goroutine, trace, …).
func NewServeMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the observability endpoint on addr (":0" picks a free
// port) and returns the bound address plus a shutdown function. The
// server runs until shutdown is called; serving errors after shutdown
// are swallowed.
func Serve(addr string, r *Registry) (boundAddr string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewServeMux(r)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
