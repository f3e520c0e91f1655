package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdb"
	"cdb/client"
	"cdb/internal/server"
)

// serveScale is the dataset scale of both serving workloads.
const serveScale = 0.12

// Reference sizes of the serving lists at refSeconds. Quotas are
// multiples of the shapes' constant combinations on paper (8, 6, 48).
var (
	// hotSet is the fixed set of statements 70 % of serve_mix repeats.
	hotSet = quota{"2J": 3, "2J1S": 8, "3J": 3, "3J1S": 6, "3J2S": 12}
	// serveNovel is the 30 % of serve_mix that never repeats in a pass;
	// hotRepeats × 32 hot ops make up the other 70 %.
	serveNovel = quota{"2J": 72, "2J1S": 256, "3J": 96, "3J1S": 240, "3J2S": 288}
	hotRepeats = 70
	// durableList sizes both the journalled list J and the post-restart
	// list N; 400 statements overflow the 256-entry answer cache on
	// purpose, so most of J re-executes against replayed verdicts.
	durableList = quota{"2J": 40, "2J1S": 96, "3J": 40, "3J1S": 96, "3J2S": 96}
)

// clientCount is the closed-loop concurrency: one goroutine and one
// keep-alive connection per client.
func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// stack is the cdbd serving stack in one process: DB, engine, HTTP
// server on a loopback port, and the closed-loop clients.
type stack struct {
	engine  *cdb.Engine
	srv     *server.Server
	httpSrv *http.Server
	served  chan struct{}
	clients []*client.Client
	conns   []*http.Transport
	// engineBootMs is how long NewEngine took: with a ledger directory
	// that is ledger.Open's replay plus the engine's cache warm-up.
	engineBootMs float64
}

// openStack builds the stack the way cmd/cdbd does with its default
// flags (50 workers at 0.85 ± 0.1, verdict cache 4096, answer cache
// 256, max queue 64), admitting as many queries as there are clients.
// A non-empty ledgerDir adds the durable ledger under the "interval"
// fsync policy, cdbd's default.
func openStack(ledgerDir string) (*stack, error) {
	db, err := cdb.OpenConfig(cdb.Config{
		Seed:           crowdSeed,
		Dataset:        "paper",
		DatasetScale:   serveScale,
		DatasetSeed:    datasetSeed,
		Workers:        50,
		WorkerAccuracy: 0.85,
		WorkerStddev:   0.1,
	})
	if err != nil {
		return nil, err
	}
	n := clientCount()
	opts := []cdb.EngineOption{
		cdb.WithMaxInFlight(n),
		cdb.WithMaxQueue(64),
		cdb.WithVerdictCache(4096),
		cdb.WithResultCache(256),
	}
	if ledgerDir != "" {
		opts = append(opts, cdb.WithLedgerDir(ledgerDir), cdb.WithLedgerFsync("interval"))
	}
	bootStart := time.Now()
	eng, err := db.NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	boot := ms(time.Since(bootStart))
	srv, err := server.New(server.Config{DB: db, Engine: eng})
	if err != nil {
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &stack{engine: eng, srv: srv, httpSrv: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}), engineBootMs: boot}
	go func() {
		defer close(s.served)
		_ = s.httpSrv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	for i := 0; i < n; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		s.conns = append(s.conns, tr)
		s.clients = append(s.clients, client.New(ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: tr})))
	}
	return s, nil
}

// close drains the engine (which syncs and closes the ledger), shuts
// the listener down and waits for the serve goroutine.
func (s *stack) close() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.httpSrv.Shutdown(ctx)
	<-s.served
	for _, tr := range s.conns {
		tr.CloseIdleConnections()
	}
}

// outcome is what the benchmark keeps of one served op.
type outcome struct {
	latMs  float64
	err    error
	stats  cdb.Stats
	digest uint64
	bytes  int    // response body size, where the entry depth has one
	wire   []byte // canonical result bytes, kept for sampled ops only
}

// sampleEvery is the stride of the wire-versus-in-process comparison.
const sampleEvery = 50

// The three depths at which an op can enter the serving stack. The
// end-to-end metrics always use depthClient; the traced run replays the
// same list at the other two and subtracts.
const (
	depthClient  = "client.query"   // client.Query over loopback HTTP
	depthHandler = "server.handler" // Server.Handler() with a ResponseRecorder
	depthEngine  = "engine.submit"  // Engine.Submit + Future.Result in process
)

// send executes one statement at the given depth on behalf of closed-
// loop worker w and returns the result with the response body size (0
// where there is no body).
func (s *stack) send(depth string, w int, stmt string) (*cdb.Result, int, error) {
	switch depth {
	case depthHandler:
		body, err := json.Marshal(client.QueryRequest{Query: stmt})
		if err != nil {
			return nil, 0, err
		}
		rw := httptest.NewRecorder()
		s.httpSrv.Handler.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rw.Code != http.StatusOK {
			return nil, rw.Body.Len(), fmt.Errorf("handler: status %d: %s", rw.Code, rw.Body.String())
		}
		n := rw.Body.Len()
		var res cdb.Result
		if err := json.NewDecoder(rw.Body).Decode(&res); err != nil {
			return nil, n, err
		}
		return &res, n, nil
	case depthEngine:
		fut, err := s.engine.Submit(context.Background(), stmt)
		if err != nil {
			return nil, 0, err
		}
		res, err := fut.Result(context.Background())
		return res, 0, err
	default:
		res, err := s.clients[w].Query(context.Background(), stmt)
		return res, 0, err
	}
}

// drive runs ops at the given depth in a closed loop — each worker
// pulls the next op from a shared cursor when its previous one has
// returned — and returns one outcome per op, in op order. A non-nil
// rec gets one span per op, named after the depth and indexed from
// base.
func (s *stack) drive(ops []op, depth string, rec *recorder, base int) []outcome {
	out := make([]outcome, len(ops))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := range s.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				keep := depth == depthClient && i%sampleEvery == 0
				out[i] = s.query(depth, w, ops[i].stmt, keep, rec, base+i)
			}
		}(w)
	}
	wg.Wait()
	return out
}

func (s *stack) query(depth string, w int, stmt string, keepWire bool, rec *recorder, opIndex int) outcome {
	sp := -1
	if rec != nil {
		sp = rec.begin(depth, opIndex, -1)
	}
	t0 := time.Now()
	res, n, err := s.send(depth, w, stmt)
	o := outcome{latMs: ms(time.Since(t0)), err: err, bytes: n}
	if rec != nil {
		rec.end(sp)
	}
	if err != nil {
		return o
	}
	o.stats = res.Stats
	var raw []byte
	o.digest, raw = digest(res)
	if keepWire {
		o.wire = raw
	}
	return o
}

// fold records outcomes into the pass in op order; timed ones also
// contribute their latency.
func (p *passResult) fold(outs []outcome, timed bool) {
	for _, o := range outs {
		if timed {
			p.lat = append(p.lat, o.latMs)
		}
		p.add(o.err, o.stats, o.digest)
	}
}

// checkInProcess re-submits every sampled op to the engine directly
// and counts those whose canonical result bytes differ from what came
// over the wire.
func (s *stack) checkInProcess(ops []op, outs []outcome) int {
	bad := 0
	for i, o := range outs {
		if o.wire == nil {
			continue
		}
		fut, err := s.engine.Submit(context.Background(), ops[i].stmt)
		if err != nil {
			bad++
			continue
		}
		res, err := fut.Result(context.Background())
		if err != nil {
			bad++
			continue
		}
		if _, raw := digest(res); string(raw) != string(o.wire) {
			bad++
		}
	}
	return bad
}

// serveOps generates serve_mix's lists: the hot set (also the warm
// list) and the timed mix.
func serveOps(seed int64, seconds int) (hot, timed []op, err error) {
	g, err := newGenerator(seed, genData("paper", serveScale))
	if err != nil {
		return nil, nil, err
	}
	if hot, err = g.draw("paper", hotSet, true); err != nil {
		return nil, nil, err
	}
	novel, err := g.draw("paper", serveNovel.scaled(seconds), false)
	if err != nil {
		return nil, nil, err
	}
	return hot, g.mix(hot, scaleOps(hotRepeats, seconds), novel), nil
}

// servePass runs one pass of serve_mix from fresh state, entering the
// stack at depth. It also returns the timed outcomes, which the traced
// run splits into hot and novel.
func servePass(hot, timed []op, depth string, rec *recorder) (*passResult, []outcome, error) {
	p := newPass()
	setup := startMeter()
	s, err := openStack("")
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	warm := make([]outcome, len(hot))
	for i, o := range hot {
		warm[i] = s.query(depth, 0, o.stmt, false, nil, 0)
	}
	p.fold(warm, false)
	p.setupS, _, _ = setup.stop()

	m := startMeter()
	outs := s.drive(timed, depth, rec, 0)
	p.wallS, p.cpuMs, p.allocMB = m.stop()
	p.fold(outs, true)
	p.engine = s.engine.Stats()
	p.hits = p.engine.HITsIssued
	p.liveMB = liveHeapMB()
	if depth == depthClient {
		p.failed += s.checkInProcess(timed, outs)
	}
	return p, outs, nil
}

// durableOps generates durable_restart's two lists of novel
// statements: J, journalled before the restart and replayed after it,
// and N, first seen after it.
func durableOps(seed int64, seconds int) (j, n []op, err error) {
	g, err := newGenerator(seed, genData("paper", serveScale))
	if err != nil {
		return nil, nil, err
	}
	q := durableList.scaled(seconds)
	if j, err = g.draw("paper", q, false); err != nil {
		return nil, nil, err
	}
	if n, err = g.draw("paper", q, false); err != nil {
		return nil, nil, err
	}
	return j, n, nil
}

// durablePass runs one pass of durable_restart: journal J into a fresh
// ledger directory, close, restart on the same directory, then time J
// again (served from replayed verdicts and answers) and N (new work
// appended beside them).
func durablePass(dir string, j, n []op, depth string, rec *recorder) (*passResult, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := newPass()

	t0 := time.Now()
	s, err := openStack(dir)
	if err != nil {
		return nil, err
	}
	first := s.drive(j, depth, nil, 0)
	p.fold(first, false)
	p.hits = s.engine.Stats().HITsIssued
	s.close()
	p.journalS = time.Since(t0).Seconds()

	setup := startMeter()
	if s, err = openStack(dir); err != nil {
		return nil, err
	}
	defer s.close()
	p.setupS, _, _ = setup.stop()

	m := startMeter()
	again := s.drive(j, depth, rec, 0)
	wall1, cpu1, alloc1 := m.stop()
	// Barrier: everything journalled must come back byte-identical
	// without a single new assignment.
	p.fold(again, true)
	if issued := s.engine.Stats().AssignmentsIssued; issued != 0 {
		p.failed += len(j)
	} else {
		for i := range again {
			if again[i].err == nil && again[i].digest != first[i].digest {
				p.failed++
			}
		}
	}
	m = startMeter()
	fresh := s.drive(n, depth, rec, len(j))
	wall2, cpu2, alloc2 := m.stop()
	p.fold(fresh, true)
	p.wallS, p.cpuMs, p.allocMB = wall1+wall2, cpu1+cpu2, alloc1+alloc2

	p.engine = s.engine.Stats()
	p.ledger = s.engine.LedgerStats()
	p.hits += p.engine.HITsIssued
	p.liveMB = liveHeapMB()
	p.engineBootMs = s.engineBootMs
	// An append error keeps the record in memory only: the answer was
	// served, its durability was not.
	p.failed += int(p.ledger.AppendErrors)
	return p, nil
}
