package exec

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sort"
	"testing"

	"cdb/internal/cost"
	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/faults"
	"cdb/internal/graph"
	"cdb/internal/meta"
	"cdb/internal/stats"
	"cdb/internal/table"
)

// pinnedRun is one crowd path of TestCrowdPathsPinned: the plan it
// runs and the options that select the path.
type pinnedRun struct {
	plan func(t *testing.T) *Plan
	opts func(t *testing.T) Options
	// cancelAt, when positive, cancels the query during that round's
	// strategy call, so the round is discarded mid-collect.
	cancelAt int
}

// flaggedResolver answers like pureResolver and marks a deterministic
// share of the verdicts Coalesced, Cached or Ledger by task key, so the
// resolver path's sharing counters are part of what is pinned.
type flaggedResolver struct{ pureResolver }

func (r flaggedResolver) Resolve(ctx context.Context, reqs []TaskRequest) (map[int]TaskVerdict, error) {
	out, err := r.pureResolver.Resolve(ctx, reqs)
	for _, req := range reqs {
		v := out[req.Edge]
		switch stats.HashString(req.Key) % 4 {
		case 1:
			v.Coalesced = true
		case 2:
			v.Cached = true
		case 3:
			v.Ledger = true
		}
		out[req.Edge] = v
	}
	return out, err
}

// paperPlan builds a plan over the paper benchmark's 2-join query at a
// small scale, dirty enough that rounds prune and noisy workers err.
func paperPlan(t *testing.T, seed uint64) (*Plan, *dataset.Data) {
	t.Helper()
	d := dataset.GenPaper(dataset.Config{Seed: seed, Scale: 0.15})
	p, err := BuildPlan(mustSelect(t, dataset.Queries("paper")["2J"]), d.Catalog, d.Oracle, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

func noisyPool(seed uint64) *crowd.Pool { return crowd.NewPool(25, 0.85, 0.05, stats.NewRNG(seed)) }

// transportOpts is asyncSetup with the transport closed when the test
// ends.
func transportOpts(t *testing.T, seed uint64, inj *faults.Injector) Options {
	opts, tp := asyncSetup(seed, inj)
	t.Cleanup(tp.Close)
	return opts
}

func pinnedRuns() map[string]pinnedRun {
	paper := func(t *testing.T) *Plan { p, _ := paperPlan(t, 5); return p }
	sync := func(q QualityMode) func(*testing.T) Options {
		return func(*testing.T) Options {
			return Options{Strategy: &cost.Expectation{}, Redundancy: 3, Quality: q, Pool: noisyPool(61)}
		}
	}
	return map[string]pinnedRun{
		"majority": {plan: paper, opts: sync(MajorityVoting)},
		"majority-markets": {plan: paper, opts: func(*testing.T) Options {
			rng := stats.NewRNG(31)
			amt := crowd.NewMarket("AMT", true, crowd.NewPool(20, 0.8, 0.1, rng.Split()))
			cf := crowd.NewMarket("CrowdFlower", false, crowd.NewPool(20, 0.9, 0.05, rng.Split()))
			return Options{Strategy: &cost.Expectation{}, Redundancy: 3, Pool: noisyPool(61), Router: crowd.NewRouter(amt, cf)}
		}},
		"majority-calibrated": {plan: paper, opts: func(*testing.T) Options {
			return Options{Strategy: &cost.Expectation{}, Redundancy: 3, Pool: noisyPool(61), Calibrate: true}
		}},
		"cdb+": {plan: paper, opts: sync(CDBPlus)},
		"resolver": {plan: paper, opts: func(*testing.T) Options {
			return Options{Strategy: &cost.Expectation{}, Redundancy: 3, Pool: noisyPool(61),
				Resolver: flaggedResolver{pureResolver{seed: 9, pool: noisyPool(61)}}}
		}},
		"transport-clean": {plan: examplePlan, opts: func(t *testing.T) Options { return transportOpts(t, 1, nil) }},
		"transport-drops-retries": {plan: examplePlan, opts: func(t *testing.T) Options {
			return transportOpts(t, 2, faults.New(faults.Config{Seed: 7, DropRate: 0.3}))
		}},
		"transport-stragglers-duplicates": {plan: examplePlan, opts: func(t *testing.T) Options {
			return transportOpts(t, 4, faults.New(faults.Config{Seed: 13, StragglerRate: 0.6, DuplicateRate: 0.2}))
		}},
		"transport-lost": {plan: examplePlan, opts: func(t *testing.T) Options {
			return transportOpts(t, 5, faults.New(faults.Config{Seed: 21, DropRate: 1}))
		}},
		"transport-cdb+": {plan: examplePlan, opts: func(t *testing.T) Options {
			opts := transportOpts(t, 3, faults.New(faults.Config{Seed: 9, DropRate: 0.2, StragglerRate: 0.3}))
			opts.Quality = CDBPlus
			return opts
		}},
		"transport-cancelled": {plan: examplePlan, cancelAt: 3, opts: func(t *testing.T) Options {
			return transportOpts(t, 8, faults.New(faults.Config{Seed: 3, DropRate: 0.1, StragglerRate: 0.3}))
		}},
	}
}

// pinnedHashes are the digests of every crowd path's observable
// outcome (see hashRun) for the runs of pinnedRuns.
var pinnedHashes = map[string]uint64{
	"majority":                        0x30165d565bf36033,
	"majority-markets":                0x884f8a05930e458b,
	"majority-calibrated":             0x9b7fcf8a227281d4,
	"cdb+":                            0x21d5663b77f31c01,
	"resolver":                        0x7c63cd7566974df3,
	"transport-clean":                 0xb73115ce94176b35,
	"transport-drops-retries":         0x7595e5e2d9e1e81c,
	"transport-stragglers-duplicates": 0x2e895143d0ebc8a2,
	"transport-lost":                  0xc387112e039095c2,
	"transport-cdb+":                  0xe5e1b50fd8856f64,
	"transport-cancelled":             0xef2bdfd547eb2c86,
}

// hashRun runs p under opts with metadata recording on and digests
// the colour of every edge after every round, the Report's public
// fields and the metadata store's three tables. The digest text still
// carries the zero Inferred counts that RoundUpdate and Report printed
// before transitive inference was removed, so the digests pinned then
// still hold. The store must hold
// exactly the tasks and assignments the Report charges — a discarded
// round leaves nothing — except that on the resolver path the answers
// are the resolver's, so no assignment is recorded.
func hashRun(t *testing.T, p *Plan, opts Options, cancelAt int) uint64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if cancelAt > 0 {
		opts.Strategy = &cancelAfterRounds{inner: opts.Strategy, after: cancelAt, cancel: cancel}
	}
	h := fnv.New64a()
	store := meta.NewStore()
	opts.Meta = store
	opts.Progress = func(u RoundUpdate) {
		fmt.Fprintf(h, "round {Round:%d Tasks:%d Assignments:%d Blue:%d Red:%d TasksTotal:%d AssignmentsTotal:%d Open:%d Inferred:0}:",
			u.Round, u.Tasks, u.Assignments, u.Blue, u.Red, u.TasksTotal, u.AssignmentsTotal, u.Open)
		for e := 0; e < p.G.NumEdges(); e++ {
			fmt.Fprint(h, int(p.G.Edge(e).Color))
		}
		fmt.Fprintln(h)
	}
	rep, err := Run(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	writeReport(h, rep)
	if got := store.Tasks().Len(); got != rep.Metrics.Tasks {
		t.Errorf("store holds %d tasks, the report charges %d", got, rep.Metrics.Tasks)
	}
	if got := store.Assignments().Len(); opts.Resolver == nil && got != rep.Assignments {
		t.Errorf("store holds %d assignments, the report charges %d", got, rep.Assignments)
	}
	for _, tbl := range []*table.Table{store.Tasks(), store.Assignments(), store.Workers()} {
		fmt.Fprintf(h, "%s: %d rows\n", tbl.Schema.Name, tbl.Len())
		for _, r := range tbl.Rows {
			fmt.Fprintf(h, "%v\n", r)
		}
	}
	return h.Sum64()
}

// writeReport renders every public field of rep, PerMarket in key
// order.
func writeReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "metrics %+v assignments %d hits %d dollars %v\n", rep.Metrics, rep.Assignments, rep.HITs, rep.Dollars)
	fmt.Fprintf(w, "reliability %+v\n", rep.Reliability)
	fmt.Fprintf(w, "coalesced %d cached %d ledger %d inferred 0\n", rep.Coalesced, rep.CachedTasks, rep.LedgerTasks)
	for i, a := range rep.Answers {
		fmt.Fprintf(w, "answer %v %v", a.Assign, a.Edges)
		if rep.Confidence != nil {
			fmt.Fprintf(w, " conf %v", rep.Confidence[i])
		}
		fmt.Fprintln(w)
	}
	markets := make([]string, 0, len(rep.PerMarket))
	for m := range rep.PerMarket {
		markets = append(markets, m)
	}
	sort.Strings(markets)
	for _, m := range markets {
		fmt.Fprintf(w, "market %s %d\n", m, rep.PerMarket[m])
	}
}

// TestCrowdPathsPinned pins the observable outcome of every crowd path
// — majority voting (alone, across two markets, with calibration), CDB+, a shared resolver, and the
// fault-tolerant transport clean, under drops and retries, stragglers
// and duplicates, total loss, cancellation, and with CDB+ — to digests
// of the per-round edge colours, the Report and the metadata tables. A
// change to how rounds are collected or concluded must leave every
// digest unchanged. Two more cases pin what a round leaves behind: a
// resolver round that fails leaves nothing, and a synchronous round
// never touches Reliability.
func TestCrowdPathsPinned(t *testing.T) {
	for name, run := range pinnedRuns() {
		t.Run(name, func(t *testing.T) {
			got := hashRun(t, run.plan(t), run.opts(t), run.cancelAt)
			if want, ok := pinnedHashes[name]; !ok || got != want {
				t.Errorf("digest %#x, pinned %#x", got, want)
			}
		})
	}
	t.Run("resolver-omission-discards-the-round", resolverOmissionDiscardsTheRound)
	t.Run("sync-redundancy-above-pool-size", syncRedundancyAbovePoolSize)
}

// stopAfter ends the query after n rounds by proposing nothing more.
type stopAfter struct {
	cost.Strategy
	n, calls int
}

func (s *stopAfter) NextRound(g *graph.Graph) []int {
	if s.calls++; s.calls > s.n {
		return nil
	}
	return s.Strategy.NextRound(g)
}

// omittingResolver answers like pureResolver with every verdict
// replayed from the ledger, and on its n-th call leaves the batch's
// last edge without a verdict.
type omittingResolver struct {
	pureResolver
	n, calls int
}

func (r *omittingResolver) Resolve(ctx context.Context, reqs []TaskRequest) (map[int]TaskVerdict, error) {
	out, err := r.pureResolver.Resolve(ctx, reqs)
	for e, v := range out {
		v.Ledger = true
		out[e] = v
	}
	if r.calls++; r.calls == r.n {
		delete(out, reqs[len(reqs)-1].Edge)
	}
	return out, err
}

// publicReport keeps a Report's public fields, minus the three a
// discarded round sets: Partial, Reason and RoundsTruncated.
func publicReport(r *Report) Report {
	rel := r.Reliability
	rel.Partial, rel.Reason, rel.RoundsTruncated = false, "", 0
	return Report{
		Account: &Account{
			Metrics: r.Metrics, Assignments: r.Assignments, HITs: r.HITs, Dollars: r.Dollars, Reliability: rel,
			Coalesced: r.Coalesced, CachedTasks: r.CachedTasks, LedgerTasks: r.LedgerTasks, PerMarket: r.PerMarket,
		},
		Answers: r.Answers, Confidence: r.Confidence,
	}
}

// resolverOmissionDiscardsTheRound: a resolver that leaves one edge
// of a batch without a verdict fails the round, and the round leaves
// nothing behind — not even the ledger-served tasks that preceded the
// missing edge. The Report equals that of the run stopped one round
// earlier, apart from Partial, Reason and RoundsTruncated.
func resolverOmissionDiscardsTheRound(t *testing.T) {
	const failing = 2
	run := func(strategy cost.Strategy, resolver TaskResolver) *Report {
		p, _ := paperPlan(t, 5)
		rep, err := Run(context.Background(), p, Options{Strategy: strategy, Redundancy: 3, Pool: noisyPool(61), Resolver: resolver})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	pure := pureResolver{seed: 9, pool: noisyPool(61)}
	failed := run(&cost.Expectation{}, &omittingResolver{pureResolver: pure, n: failing})
	stopped := run(&stopAfter{Strategy: &cost.Expectation{}, n: failing - 1}, &omittingResolver{pureResolver: pure})
	if !failed.Reliability.Partial || failed.Reliability.RoundsTruncated != 1 || failed.Metrics.Rounds != failing-1 {
		t.Fatalf("omission did not discard round %d: %d rounds, %+v", failing, failed.Metrics.Rounds, failed.Reliability)
	}
	if stopped.LedgerTasks == 0 {
		t.Fatal("the case needs ledger-served tasks before the failing round")
	}
	if got, want := publicReport(failed), publicReport(stopped); !reflect.DeepEqual(got, want) {
		t.Fatalf("failed round left state behind:\n got %+v\nwant %+v", got, want)
	}
}

// syncRedundancyAbovePoolSize: a synchronous run asking more
// answers per task than the pool has workers concludes each task on
// fewer answers without touching Reliability, which describes the
// fault-tolerant transport only.
func syncRedundancyAbovePoolSize(t *testing.T) {
	for _, q := range []QualityMode{MajorityVoting, CDBPlus} {
		t.Run(q.String(), func(t *testing.T) {
			rep, err := Run(context.Background(), examplePlan(t), Options{
				Strategy: &cost.Expectation{}, Redundancy: 8, Quality: q,
				Pool: crowd.NewPool(5, 0.85, 0.05, stats.NewRNG(3)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Assignments == 0 {
				t.Fatal("no answers collected")
			}
			if rep.Reliability != (ReliabilityStats{}) {
				t.Fatalf("synchronous run reported reliability %+v", rep.Reliability)
			}
		})
	}
}
