package crowd

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"cdb/internal/faults"
	"cdb/internal/obs"
	"cdb/internal/stats"
)

// Transport metrics: assignments issued to markets and answers actually
// delivered back. issued − delivered ≈ in-flight + injected drops.
var (
	mIssued    = obs.Default.Counter("cdb_transport_assignments_issued_total")
	mDelivered = obs.Default.Counter("cdb_transport_answers_delivered_total")
)

// Tick is the transport's virtual time unit. All deadlines, latencies
// and blackout windows are expressed in ticks; the clock advances only
// when the collector asks for it (Collect), so simulated hours replay
// in microseconds and every timeout decision is deterministic.
type Tick = int64

// TaskSpec is one task handed to the transport for crowdsourcing.
type TaskSpec struct {
	// ID is the caller's task key (the executor uses graph edge ids).
	ID int
	// Attempt distinguishes reissues of the same task; fates and
	// latencies are drawn per (task, attempt, worker).
	Attempt int
	// Truth drives the simulated workers, exactly as in the sync path.
	Truth bool
	// K is the number of worker assignments requested.
	K int
	// Deadline is the absolute tick after which this HIT's answers
	// count as late.
	Deadline Tick
	// IssuedAt is stamped by Issue; callers leave it zero.
	IssuedAt Tick
}

// Answer is one worker answer delivered by the transport.
type Answer struct {
	Task     int
	Attempt  int
	Worker   int
	Market   string
	Value    bool
	Tick     Tick // virtual arrival time
	Late     bool // arrived after its HIT's deadline
	Injected bool // a fault-injected duplicate delivery
}

// TransportConfig configures an async transport.
type TransportConfig struct {
	// Markets are the platforms tasks round-robin across. Required
	// (wrap a single Pool with NewMarket for the one-platform case).
	Markets []*Market
	// Faults optionally injects chaos; nil runs a clean platform.
	Faults *faults.Injector
	// LatencyBase/LatencyJitter model per-assignment completion time:
	// Base + U[0, Jitter) ticks. Defaults 8 + U[0, 16).
	LatencyBase, LatencyJitter int64
	// Seed drives latency draws (hash-keyed per assignment, so draws
	// are scheduling-independent). Defaults to 1.
	Seed uint64
}

// delivery is an answer scheduled for a future tick.
type delivery struct {
	ans Answer
	seq uint64 // issue order, tie-breaks equal ticks deterministically
}

type marketMsg struct {
	// exactly one of specs / advance is meaningful
	specs   []TaskSpec
	advance Tick
	done    chan struct{}
}

type marketState struct {
	m       *Market
	ch      chan marketMsg
	pending []delivery // sorted lazily at advance time
	seq     uint64
}

// Transport is the fault-tolerant asynchronous path between the
// executor and the simulated crowd platforms: tasks go out with Issue,
// answers come back with Collect as virtual time advances. One
// goroutine per market owns that market's pool and pending answers;
// content is deterministic for a fixed seed because fates and
// latencies are hash-keyed per assignment and Collect sorts deliveries
// into virtual-time order before returning them.
//
// Close must be called exactly once; it stops the market goroutines
// (the transport tests assert zero goroutine leaks).
type Transport struct {
	cfg     TransportConfig
	markets []*marketState
	out     chan Answer
	stop    chan struct{}
	wg      sync.WaitGroup
	now     atomic.Int64
	rr      int // round-robin routing cursor (Issue is single-caller)

	closeOnce sync.Once
}

// NewTransport starts the market goroutines. Callers must Close.
func NewTransport(cfg TransportConfig) *Transport {
	if cfg.LatencyBase <= 0 {
		cfg.LatencyBase = 8
	}
	if cfg.LatencyJitter <= 0 {
		cfg.LatencyJitter = 16
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	t := &Transport{
		cfg:  cfg,
		out:  make(chan Answer, 1024),
		stop: make(chan struct{}),
	}
	for _, m := range cfg.Markets {
		ms := &marketState{m: m, ch: make(chan marketMsg)}
		t.markets = append(t.markets, ms)
		t.wg.Add(1)
		go t.marketLoop(ms)
	}
	return t
}

// Now returns the transport's virtual clock.
func (t *Transport) Now() Tick { return t.now.Load() }

// Issue hands tasks to the platforms, dealing them round-robin across
// markets. It stamps IssuedAt with the current virtual time and returns
// the market name each task went to, aligned with specs. Issue and
// Collect must be called from one goroutine (the executor's).
func (t *Transport) Issue(specs []TaskSpec) []string {
	if len(t.markets) == 0 || len(specs) == 0 {
		return nil
	}
	now := t.Now()
	routed := make([]string, len(specs))
	perMarket := make([][]TaskSpec, len(t.markets))
	for i, s := range specs {
		s.IssuedAt = now
		mi := t.rr % len(t.markets)
		t.rr++
		perMarket[mi] = append(perMarket[mi], s)
		routed[i] = t.markets[mi].m.Name
		mIssued.Add(int64(s.K))
	}
	for mi, batch := range perMarket {
		if len(batch) == 0 {
			continue
		}
		select {
		case t.markets[mi].ch <- marketMsg{specs: batch}:
		case <-t.stop:
			return routed
		}
	}
	return routed
}

// Collect advances virtual time to `until` and returns every answer
// that arrives by then, sorted into deterministic virtual-time order.
// It returns early with ctx.Err() when the context is cancelled; the
// clock still advances, and undelivered answers stay queued for a
// later Collect (or are discarded by Close).
func (t *Transport) Collect(ctx context.Context, until Tick) ([]Answer, error) {
	if until < t.Now() {
		until = t.Now()
	}
	t.now.Store(until)
	done := make(chan struct{}, len(t.markets))
	var got []Answer
	acks := 0
	// Hand the advance order to every market, staying receptive to
	// deliveries so a market blocked on a full out-channel cannot
	// deadlock the handshake.
	for mi := 0; mi < len(t.markets); {
		select {
		case t.markets[mi].ch <- marketMsg{advance: until, done: done}:
			mi++
		case a := <-t.out:
			got = append(got, a)
		case <-done:
			acks++
		case <-ctx.Done():
			return sortAnswers(got), ctx.Err()
		case <-t.stop:
			return sortAnswers(got), nil
		}
	}
	// A market sends all its due deliveries before acking, so once all
	// acks are in, the remaining answers sit in the out buffer.
	for acks < len(t.markets) {
		select {
		case a := <-t.out:
			got = append(got, a)
		case <-done:
			acks++
		case <-ctx.Done():
			return sortAnswers(got), ctx.Err()
		case <-t.stop:
			return sortAnswers(got), nil
		}
	}
	for {
		select {
		case a := <-t.out:
			got = append(got, a)
		default:
			return sortAnswers(got), nil
		}
	}
}

// sortAnswers orders deliveries by virtual arrival, then by stable task
// identity, erasing any cross-market channel interleaving so a chaos
// run's observable answer stream is deterministic.
func sortAnswers(got []Answer) []Answer {
	sort.Slice(got, func(i, j int) bool {
		a, b := got[i], got[j]
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.Market != b.Market {
			return a.Market < b.Market
		}
		return !a.Injected && b.Injected
	})
	return got
}

// Close stops the market goroutines and waits for them; pending
// undelivered answers are discarded. Safe to call more than once.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		close(t.stop)
	})
	t.wg.Wait()
}

func (t *Transport) marketLoop(ms *marketState) {
	defer t.wg.Done()
	for {
		select {
		case <-t.stop:
			return
		case msg := <-ms.ch:
			if msg.specs != nil {
				for _, s := range msg.specs {
					t.work(ms, s)
				}
				continue
			}
			if !t.deliverDue(ms, msg.advance) {
				return // stopped mid-delivery
			}
			select {
			case msg.done <- struct{}{}:
			case <-t.stop:
				return
			}
		}
	}
}

// work simulates one HIT on this market: draw K distinct workers, have
// each answer, apply the fault injector's ruling, and schedule the
// deliveries. Runs on the market goroutine, which exclusively owns the
// market's pool (and therefore its RNG streams).
func (t *Transport) work(ms *marketState, s TaskSpec) {
	inj := t.cfg.Faults
	workers := ms.m.Pool.DistinctArrivals(s.K)
	for _, w := range workers {
		fate := inj.Judge(ms.m.Name, s.ID, s.Attempt, w.ID)
		value := w.AnswerBool(s.Truth)
		if fate.Drop {
			continue // the worker abandoned the HIT; the draw is still paid for realism of streams
		}
		if fate.Corrupt {
			value = fate.CorruptValue
		}
		lr := stats.HashRNG(t.cfg.Seed, stats.HashString(ms.m.Name),
			uint64(s.ID), uint64(s.Attempt), uint64(w.ID))
		tick := s.IssuedAt + t.cfg.LatencyBase + int64(lr.Intn(int(t.cfg.LatencyJitter)))
		if fate.Straggle {
			// Stragglers land strictly past the HIT deadline, by up to
			// another full latency window.
			tick = s.Deadline + 1 + int64(lr.Intn(int(t.cfg.LatencyBase+t.cfg.LatencyJitter)))
		}
		tick = inj.DelayForBlackout(ms.m.Name, tick)
		ans := Answer{
			Task:    s.ID,
			Attempt: s.Attempt,
			Worker:  w.ID,
			Market:  ms.m.Name,
			Value:   value,
			Tick:    tick,
			Late:    tick > s.Deadline,
		}
		ms.seq++
		ms.pending = append(ms.pending, delivery{ans: ans, seq: ms.seq})
		if fate.Duplicate {
			dup := ans
			dup.Tick = inj.DelayForBlackout(ms.m.Name, tick+1+int64(lr.Intn(int(t.cfg.LatencyJitter))))
			dup.Late = dup.Tick > s.Deadline
			dup.Injected = true
			ms.seq++
			ms.pending = append(ms.pending, delivery{ans: dup, seq: ms.seq})
		}
	}
}

// deliverDue sends every pending answer with tick ≤ until on the out
// channel, in (tick, seq) order. Returns false if the transport stopped.
func (t *Transport) deliverDue(ms *marketState, until Tick) bool {
	sort.Slice(ms.pending, func(i, j int) bool {
		if ms.pending[i].ans.Tick != ms.pending[j].ans.Tick {
			return ms.pending[i].ans.Tick < ms.pending[j].ans.Tick
		}
		return ms.pending[i].seq < ms.pending[j].seq
	})
	n := 0
	for n < len(ms.pending) && ms.pending[n].ans.Tick <= until {
		n++
	}
	for i := 0; i < n; i++ {
		select {
		case t.out <- ms.pending[i].ans:
			mDelivered.Inc()
		case <-t.stop:
			return false
		}
	}
	ms.pending = append(ms.pending[:0], ms.pending[n:]...)
	return true
}
