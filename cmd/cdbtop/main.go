// Command cdbtop is a terminal dashboard for a running cdbd: the
// operator's live view of the serving layer. It polls /metrics
// (Prometheus text) and /v1/queries (the engine's query registry) and
// renders request rates by status class, per-endpoint latency
// quantiles, execution-phase timings, crowd-work-ledger durability
// counters (when the server runs -ledger-dir), and the live query
// table — the queued/running/draining queries with their crowd-round
// progress, plus the most recently completed ones.
//
//	cdbtop -addr localhost:8080
//	cdbtop -addr localhost:8080 -interval 1s
//	cdbtop -addr localhost:8080 -once        # one snapshot, no screen control (CI, scripts)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"cdb/client"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "cdbd address (host:port or URL)")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		once     = flag.Bool("once", false, "print one snapshot and exit (no screen control)")
	)
	flag.Parse()

	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	p := &poller{
		base: base,
		hc:   &http.Client{Timeout: 10 * time.Second},
		qc:   client.New(base),
	}

	var prev *metricsSnapshot
	var prevAt time.Time
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cur, queries, err := p.poll(ctx)
		cancel()
		now := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdbtop: %v\n", err)
			if *once {
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		dt := time.Duration(0)
		if prev != nil {
			dt = now.Sub(prevAt)
		}
		render(os.Stdout, base, prev, cur, queries, dt)
		if *once {
			return
		}
		prev, prevAt = cur, now
		time.Sleep(*interval)
	}
}

type poller struct {
	base string
	hc   *http.Client
	qc   *client.Client
}

func (p *poller) poll(ctx context.Context) (*metricsSnapshot, *client.QueriesResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("scrape %s/metrics: %w", p.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("scrape %s/metrics: HTTP %d", p.base, resp.StatusCode)
	}
	snap, err := parsePrometheus(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	queries, err := p.qc.Queries(ctx)
	if err != nil {
		return nil, nil, err
	}
	return snap, queries, nil
}

// endpoints maps the latency histograms to their display rows.
var endpoints = []struct{ label, hist string }{
	{"/v1/query", "cdb_server_latency_query_seconds"},
	{"/v1/query/stream", "cdb_server_latency_stream_seconds"},
	{"/v1/tables", "cdb_server_latency_tables_seconds"},
	{"/v1/queries", "cdb_server_latency_queries_seconds"},
	{"other", "cdb_server_latency_other_seconds"},
}

// phases maps the execution-phase histograms to their display rows.
var phases = []struct{ label, hist string }{
	{"parse", "cdb_engine_phase_parse_seconds"},
	{"plan", "cdb_engine_phase_plan_seconds"},
	{"round", "cdb_exec_phase_round_seconds"},
	{"issue", "cdb_exec_phase_issue_seconds"},
}

func render(w io.Writer, base string, prev, cur *metricsSnapshot, q *client.QueriesResponse, dt time.Duration) {
	total := cur.scalar("cdb_server_requests_total")
	rate := ""
	if dt > 0 {
		d := total - prev.scalar("cdb_server_requests_total")
		rate = fmt.Sprintf("  %.1f req/s", float64(d)/dt.Seconds())
	}
	fmt.Fprintf(w, "cdbtop — %s — %s\n\n", base, time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "requests  total=%d%s  2xx=%d 4xx=%d 429=%d 5xx=%d  shed=%d drain_shed=%d\n",
		total, rate,
		cur.scalar("cdb_server_requests_2xx_total"),
		cur.scalar("cdb_server_requests_4xx_total"),
		cur.scalar("cdb_server_requests_429_total"),
		cur.scalar("cdb_server_requests_5xx_total"),
		cur.scalar("cdb_server_shed_total"),
		cur.scalar("cdb_server_drain_shed_total"))
	fmt.Fprintf(w, "engine    in-flight=%d queued=%d  queries=%d streams=%d\n",
		cur.scalar("cdb_engine_inflight"),
		cur.scalar("cdb_engine_queued"),
		cur.scalar("cdb_server_queries_total"),
		cur.scalar("cdb_server_streams_total"))
	if l := q.Ledger; l != nil {
		fmt.Fprintf(w, "ledger    verdicts=%d stmts=%d answers=%d  replayed=%d appended=%d  hits=%d torn=%d\n",
			l.Verdicts, l.Statements, l.Answers,
			l.Replayed, l.Appended, l.Hits, l.TornTruncated)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-18s %8s %10s %10s %10s\n", "endpoint", "count", "p50", "p95", "p99")
	for _, e := range endpoints {
		h, ok := cur.hist(e.hist)
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-18s %8d %10s %10s %10s\n", e.label, h.Count, fmtSec(h.P50), fmtSec(h.P95), fmtSec(h.P99))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-18s %8s %10s %10s %10s\n", "phase", "count", "p50", "p95", "p99")
	for _, ph := range phases {
		h, ok := cur.hist(ph.hist)
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-18s %8d %10s %10s %10s\n", ph.label, h.Count, fmtSec(h.P50), fmtSec(h.P95), fmtSec(h.P99))
	}

	fmt.Fprintf(w, "\nin-flight queries (%d)\n", len(q.InFlight))
	if len(q.InFlight) > 0 {
		fmt.Fprintf(w, "%4s %-9s %9s %6s %6s %-14s %-18s %s\n", "id", "state", "elapsed", "rounds", "open", "plan", "request", "query")
		for _, qi := range q.InFlight {
			fmt.Fprintf(w, "%4d %-9s %9s %6d %6d %-14s %-18s %s\n",
				qi.ID, qi.State, fmtMs(qi.ElapsedMs), qi.Rounds, qi.Open, planCol(qi), trunc(qi.RequestID, 18), trunc(qi.Query, 48))
		}
	}

	recent := append([]client.QueryInfo(nil), q.Recent...)
	sort.SliceStable(recent, func(i, j int) bool { return recent[i].ID > recent[j].ID })
	if len(recent) > 10 {
		recent = recent[:10]
	}
	fmt.Fprintf(w, "\nrecent queries (%d)\n", len(q.Recent))
	if len(recent) > 0 {
		fmt.Fprintf(w, "%4s %-9s %9s %6s %6s %6s %-14s %-18s %s\n", "id", "state", "elapsed", "rounds", "hits", "ledger", "plan", "request", "query")
		for _, qi := range recent {
			fmt.Fprintf(w, "%4d %-9s %9s %6d %6d %6d %-14s %-18s %s\n",
				qi.ID, qi.State, fmtMs(qi.ElapsedMs), qi.Rounds, qi.HITs, qi.Ledger, planCol(qi), trunc(qi.RequestID, 18), trunc(qi.Query, 48))
		}
	}
}

// planCol renders the planned join order for the query tables: the
// order string already carries the "→∅" early-exit marker; a non-zero
// exit count is appended for multi-exit statements. "-" means the
// server ran without the greedy planner.
func planCol(qi client.QueryInfo) string {
	if qi.Plan == "" {
		return "-"
	}
	s := qi.Plan
	if qi.PlanEarlyExits > 1 {
		s = fmt.Sprintf("%s ×%d", s, qi.PlanEarlyExits)
	}
	return trunc(s, 14)
}

// fmtSec renders a quantile estimate (seconds) as a compact duration.
func fmtSec(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

func fmtMs(ms int64) string {
	return (time.Duration(ms) * time.Millisecond).String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}
