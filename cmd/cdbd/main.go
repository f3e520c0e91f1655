// Command cdbd serves a CDB instance over HTTP: the network face of
// the crowd-powered database. It mounts the /v1 JSON wire protocol —
// blocking queries, round-by-round NDJSON streams for long-lived crowd
// queries, catalog introspection — plus the observability endpoints
// (/metrics, /debug/pprof) on one listener.
//
//	cdbd -addr :8080 -dataset example
//	cdbd -addr :8080 -dataset paper -scale 0.1 -max-inflight 16
//
//	curl -s localhost:8080/v1/tables
//	curl -s -XPOST localhost:8080/v1/query -d '{"query":"SELECT * FROM ..."}'
//	curl -sN -XPOST localhost:8080/v1/query/stream -d '{"query":"..."}'
//
// Admission control maps to HTTP: an overloaded engine sheds with 429
// and a Retry-After hint instead of queueing unboundedly. On SIGTERM
// (or SIGINT) the server drains gracefully: new queries get 503,
// accepted queries run to completion — including deadline-partial
// results — and only then does the process exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cdb"
	"cdb/internal/server"
)

func main() {
	var cfg cdb.Config
	flag.StringVar(&cfg.Dataset, "dataset", "example", "dataset to serve: example, paper or award")
	flag.Float64Var(&cfg.DatasetScale, "scale", 0.1, "dataset scale for paper/award")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "engine seed (equal seeds replay identical verdicts)")
	flag.IntVar(&cfg.Workers, "workers", 50, "simulated worker count")
	flag.Float64Var(&cfg.WorkerAccuracy, "accuracy", 0.85, "mean worker accuracy")
	flag.Float64Var(&cfg.WorkerStddev, "stddev", 0.1, "worker accuracy stddev")
	flag.StringVar(&cfg.Similarity, "similarity", "2gram", "similarity estimator: 2gram, token, edit, cosine or none")
	flag.Float64Var(&cfg.Epsilon, "epsilon", 0.3, "similarity pruning threshold")
	flag.IntVar(&cfg.Redundancy, "redundancy", 5, "answers per crowd task")
	flag.BoolVar(&cfg.Planner, "planner", false, "greedy multi-join planning: SELECTs run joins cheapest-first with plan-time early exit, /v1/explain and streams report the plan")

	var (
		addr = flag.String("addr", ":8080", "listen address")

		maxInFlight = flag.Int("max-inflight", 8, "concurrently executing queries")
		maxQueue    = flag.Int("max-queue", 64, "queries queued behind the in-flight set")
		verdictLRU  = flag.Int("verdict-cache", 4096, "shared verdict cache entries")
		resultLRU   = flag.Int("result-cache", 256, "whole-answer cache entries (negative disables)")

		ledgerDir = flag.String("ledger-dir", "", "durable crowd-work ledger directory: paid verdicts survive restarts and are replayed on boot (empty disables)")
		fsyncPol  = flag.String("fsync", "interval", "ledger durability policy: always, interval or never")

		retryAfter   = flag.Duration("retry-after", time.Second, "backoff hint on 429/503 responses")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for connection shutdown after the engine drains")

		queryLogPath = flag.String("query-log", "", "append one JSON line per logged query to this file (empty disables)")
		slowQueryMs  = flag.Int64("slow-query-ms", 0, "only log queries at least this slow (0 logs every query)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "cdbd: ", log.LstdFlags|log.Lmsgprefix)

	var qlog *server.QueryLog
	if *queryLogPath != "" {
		f, err := os.OpenFile(*queryLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Fatalf("query log: %v", err)
		}
		defer f.Close()
		qlog = server.NewQueryLog(f, time.Duration(*slowQueryMs)*time.Millisecond)
	}

	db, err := cdb.OpenConfig(cfg)
	if err != nil {
		logger.Fatalf("config: %v", err)
	}
	engineOpts := []cdb.EngineOption{
		cdb.WithMaxInFlight(*maxInFlight),
		cdb.WithMaxQueue(*maxQueue),
		cdb.WithVerdictCache(*verdictLRU),
		cdb.WithResultCache(*resultLRU),
	}
	if *ledgerDir != "" {
		engineOpts = append(engineOpts,
			cdb.WithLedgerDir(*ledgerDir),
			cdb.WithLedgerFsync(*fsyncPol))
	}
	engine, err := db.NewEngine(engineOpts...)
	if err != nil {
		logger.Fatalf("engine: %v", err)
	}
	if ls := engine.LedgerStats(); ls.Enabled {
		logger.Printf("ledger: replayed %d records from %s (%d verdicts, %d statements, %d answers; torn tails truncated: %d; fsync=%s)",
			ls.Replayed, *ledgerDir, ls.Verdicts, ls.Statements, ls.Answers, ls.TornTruncations, *fsyncPol)
	}

	srv, err := server.New(server.Config{
		DB:         db,
		Engine:     engine,
		Logger:     logger,
		RetryAfter: *retryAfter,
		QueryLog:   qlog,
	})
	if err != nil {
		logger.Fatalf("server: %v", err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		got := <-sig
		logger.Printf("received %s, draining", got)
		// Drain ordering: stop admitting and wait for every accepted
		// query first, so their handlers finish writing; only then
		// close the listener and linger for the final response bytes.
		// Engine.Close (inside Drain) flushes and syncs the ledger
		// after the last query, so every paid verdict is durable
		// before the process exits.
		srv.Drain()
		if ls := engine.LedgerStats(); ls.Enabled {
			logger.Printf("ledger: synced and closed (%d records appended this session, %d replay hits)",
				ls.Appended, ls.Hits)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		logger.Printf("drained cleanly")
	}()

	logger.Printf("serving dataset %q (scale %v, seed %d) on %s: tables %v",
		cfg.Dataset, cfg.DatasetScale, cfg.Seed, *addr, db.TableNames())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatalf("listen: %v", err)
	}
	<-done
	fmt.Fprintln(os.Stderr, "cdbd: bye")
}
