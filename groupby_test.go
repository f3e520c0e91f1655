package cdb

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"cdb/internal/cql"
	"cdb/internal/crowd"
	"cdb/internal/engine"
)

// groupByPin is the observable outcome of one GROUP BY statement: the
// crowd work it cost and a digest of its columns, rows (group_count
// included) and per-row Confidence.
type groupByPin struct {
	tasks, rounds, assignments, groups int
	digest                             uint64
}

// groupByStatements are the pinned GROUP BY statements, one per
// dataset, each grouping a dirty column of its answer.
var groupByStatements = map[string]struct {
	scale float64
	query string
}{
	"example": {0, `SELECT Paper.conference FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title GROUP BY Paper.conference;`},
	"paper": {0.12, `SELECT Researcher.affiliation, Paper.title FROM Paper, Researcher
		WHERE Paper.author CROWDJOIN Researcher.name GROUP BY Researcher.affiliation;`},
	"award": {0.12, `SELECT City.country, Winner.award FROM Winner, City, Celebrity
		WHERE Celebrity.name CROWDJOIN Winner.name AND Celebrity.birthplace CROWDJOIN City.birthplace
		GROUP BY City.country;`},
}

// groupByCrowds are the pools the pinned statements run under: perfect
// workers, noisy workers, and noisy workers under CDB+'s EM quality
// control, which both the join and the grouping ask through.
var groupByCrowds = map[string][]Option{
	"perfect":    {WithPerfectWorkers(30)},
	"noisy":      {WithWorkers(30, 0.8, 0.1)},
	"noisy-cdb+": {WithWorkers(30, 0.8, 0.1), WithQualityControl(true)},
}

// pinnedGroupBy holds the pins, keyed "dataset/crowd".
var pinnedGroupBy = map[string]groupByPin{
	"example/perfect":    {16, 3, 80, 2, 0xd1b8c7387f03715},
	"example/noisy":      {16, 3, 80, 3, 0x9f37db1efc8600f0},
	"example/noisy-cdb+": {16, 3, 75, 2, 0xa4a3dba26a2656d8},
	"paper/perfect":      {364, 20, 1820, 37, 0x9bd99398881e35f7},
	"paper/noisy":        {313, 14, 1565, 31, 0x7f428ec9dac377ff},
	"paper/noisy-cdb+":   {328, 16, 1581, 30, 0xf0999207067dd9d6},
	"award/perfect":      {1834, 3, 9170, 14, 0x34f1053eb9c9f945},
	"award/noisy":        {1842, 3, 9210, 15, 0x6ce3b010d81f80e3},
	"award/noisy-cdb+":   {1846, 3, 8238, 14, 0xeaeebde5ac852766},
}

// runGroupBy executes the pinned statement of dataset under crowd on a
// fresh DB and reduces the result to its pin.
func runGroupBy(t *testing.T, dataset, crowd string) groupByPin {
	t.Helper()
	st := groupByStatements[dataset]
	opts := append([]Option{WithDataset(dataset, st.scale, 7), WithSeed(45)}, groupByCrowds[crowd]...)
	res, err := Open(opts...).Exec(st.query)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "columns %q\n", res.Columns)
	for i, r := range res.Rows {
		fmt.Fprintf(h, "row %q", r)
		if res.Confidence != nil {
			fmt.Fprintf(h, " conf %v", res.Confidence[i])
		}
		fmt.Fprintln(h)
	}
	return groupByPin{res.Stats.Tasks, res.Stats.Rounds, res.Stats.Assignments, len(res.Rows), h.Sum64()}
}

// TestGroupByPinned pins every GROUP BY statement's rows, group
// counts, confidences, tasks, rounds and assignments on the
// example dataset and on paper and award at scale 0.12, under perfect
// and noisy crowds, and under CDB+. How the grouping is executed may change; what it
// groups and what it asks may not.
func TestGroupByPinned(t *testing.T) {
	for dataset := range groupByStatements {
		for crowd := range groupByCrowds {
			name := dataset + "/" + crowd
			t.Run(name, func(t *testing.T) {
				got := runGroupBy(t, dataset, crowd)
				if want, ok := pinnedGroupBy[name]; !ok || got != want {
					t.Errorf("got %#v, pinned %#v", got, want)
				}
			})
		}
	}
}

// paperAffiliations is the pinned paper statement without its GROUP BY.
const paperAffiliations = `SELECT Researcher.affiliation, Paper.title FROM Paper, Researcher
	WHERE Paper.author CROWDJOIN Researcher.name;`

// TestGroupByChargesInFull: the grouping's HITs and dollars reach the
// statement's Stats with its tasks, rounds and assignments. The
// statement's own run is the same with or without the GROUP BY, so what
// the GROUP BY adds is exactly the grouping's work, priced on its own.
func TestGroupByChargesInFull(t *testing.T) {
	open := func() *DB { return Open(WithDataset("paper", 0.12, 7), WithSeed(45), WithWorkers(30, 0.8, 0.1)) }
	plain := open().MustExec(paperAffiliations).Stats
	grouped := runGroupByStats(t, open(), groupByStatements["paper"].query)
	asks := grouped.Assignments - plain.Assignments
	if grouped.Tasks <= plain.Tasks || asks <= 0 {
		t.Fatalf("the grouping asked nothing: %+v vs %+v", grouped, plain)
	}
	if want := plain.HITs + crowd.DefaultPricing.HITs(asks); grouped.HITs != want {
		t.Fatalf("HITs = %d, want %d (statement) + %d (grouping)", grouped.HITs, plain.HITs, want-plain.HITs)
	}
	if want := plain.Dollars + crowd.DefaultPricing.Cost(asks); grouped.Dollars != want {
		t.Fatalf("dollars = %v, want %v", grouped.Dollars, want)
	}
}

func runGroupByStats(t *testing.T, db *DB, query string) Stats {
	t.Helper()
	res, err := db.Exec(query)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// TestGroupByRecordsMetadata: the grouping's tasks and assignments are
// rows of the metadata store like the statement's own.
func TestGroupByRecordsMetadata(t *testing.T) {
	db := Open(WithDataset("paper", 0.12, 7), WithSeed(45), WithWorkers(30, 0.8, 0.1), WithMetadata())
	st := runGroupByStats(t, db, groupByStatements["paper"].query)
	store := db.Metadata()
	if got := store.Tasks().Len(); got != st.Tasks {
		t.Fatalf("recorded %d tasks, stats say %d", got, st.Tasks)
	}
	if got := store.ComputeStats().Assignments; got != st.Assignments {
		t.Fatalf("recorded %d assignments, stats say %d", got, st.Assignments)
	}
}

// groupByAnswer runs the pinned paper GROUP BY, or the same statement
// ungrouped, through the pipeline DB.Exec uses, and returns the answer
// with its whole report.
func groupByAnswer(t *testing.T, db *DB, grouped bool) *engine.Answer {
	t.Helper()
	q := paperAffiliations
	if grouped {
		q = groupByStatements["paper"].query
	}
	st, err := cql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := engine.RunSelect(context.Background(), db.selectRequest(st.(*cql.Select)))
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// TestGroupByUnderFaultsAnswersOwnTasks: the grouping's edge ids start
// again at 0, so the statement's late and duplicated answers must not
// reach it. With reissues off, no task — the statement's or the
// grouping's — records more than its k answers, each worker at most
// once.
func TestGroupByUnderFaultsAnswersOwnTasks(t *testing.T) {
	const k = 5
	db := Open(WithDataset("paper", 0.12, 7), WithSeed(45), WithWorkers(30, 0.8, 0.1), WithRedundancy(k), WithMetadata(),
		WithFaults(FaultConfig{Seed: 3, StragglerRate: 0.5, DuplicateRate: 0.5}),
		WithReliability(ReliabilityPolicy{MaxRetries: -1, HedgeFrac: -1}))
	ans := groupByAnswer(t, db, true)
	if ans.Report.Reliability.Late == 0 || ans.Report.Reliability.Duplicates == 0 {
		t.Fatalf("no late or duplicate answer to leak: %+v", ans.Report.Reliability)
	}
	store := db.Metadata()
	if got := store.Tasks().Len(); got != ans.Report.Metrics.Tasks {
		t.Fatalf("recorded %d tasks, the report says %d", got, ans.Report.Metrics.Tasks)
	}
	answers := map[int64]int{}
	seen := map[[2]int64]bool{}
	for _, r := range store.Assignments().Rows {
		task, worker := r[0].I, r[1].I
		if seen[[2]int64{task, worker}] {
			t.Fatalf("task %d recorded worker %d twice", task, worker)
		}
		seen[[2]int64{task, worker}] = true
		if answers[task]++; answers[task] > k {
			t.Fatalf("task %d recorded %d answers, k = %d", task, answers[task], k)
		}
	}
}

// TestGroupBySharesRetryBudget: Reliability.RetryBudget caps the
// reissues of the whole query, so a GROUP BY spends what its statement
// left of it rather than a budget of its own.
func TestGroupBySharesRetryBudget(t *testing.T) {
	const budget = 12
	open := func() *DB {
		return Open(WithDataset("paper", 0.12, 7), WithSeed(45), WithWorkers(30, 0.8, 0.1),
			WithFaults(FaultConfig{Seed: 5, DropRate: 0.3}),
			WithReliability(ReliabilityPolicy{RetryBudget: budget}))
	}
	plain := groupByAnswer(t, open(), false).Report
	grouped := groupByAnswer(t, open(), true).Report
	if plain.Reliability.Reissued != budget {
		t.Fatalf("the statement reissued %d, want the whole budget %d", plain.Reliability.Reissued, budget)
	}
	if got := grouped.Reliability.Reissued; got != budget {
		t.Fatalf("the grouped statement reissued %d, budget %d", got, budget)
	}
	if grouped.Metrics.Tasks <= plain.Metrics.Tasks {
		t.Fatalf("the grouping asked nothing: %d vs %d tasks", grouped.Metrics.Tasks, plain.Metrics.Tasks)
	}
}

// engineGroupByQueries are served GROUP BY statements, each next to the
// same statement ungrouped, over paper at scale 0.08.
var engineGroupByQueries = []string{
	groupByStatements["paper"].query,
	paperAffiliations,
	`SELECT Paper.conference, Citation.number FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title GROUP BY Paper.conference;`,
	`SELECT Paper.conference, Citation.number FROM Paper, Citation
		WHERE Paper.title CROWDJOIN Citation.title;`,
}

func openEngineDB() *DB {
	return Open(WithDataset("paper", 0.08, 7), WithSeed(46), WithWorkers(30, 0.8, 0.1))
}

// servedView is a served result minus the sharing telemetry, which
// depends on what else the engine was doing.
func servedView(res *Result) Result {
	v := Result{Columns: res.Columns, Rows: res.Rows, Stats: res.Stats, Confidence: res.Confidence}
	v.Stats.Coalesced, v.Stats.CachedTasks = 0, 0
	return v
}

// submitAll submits every query twice, all at once, and returns the
// results in submission order.
func submitAll(t *testing.T, e *Engine, queries []string) []*Result {
	t.Helper()
	var futs []*Future
	for rep := 0; rep < 2; rep++ {
		for _, q := range queries {
			f, err := e.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
	}
	out := make([]*Result, len(futs))
	for i, f := range futs {
		res, err := f.Result(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", f.Query(), err)
		}
		out[i] = res
	}
	return out
}

// TestEngineGroupByConcurrentMatchesSequential: a served GROUP BY
// returns the same rows and Stats whether the engine runs one query at
// a time or eight that share HITs, and its result carries group_count.
func TestEngineGroupByConcurrentMatchesSequential(t *testing.T) {
	var results [2][]*Result
	for i, inFlight := range []int{1, 8} {
		e, err := openEngineDB().NewEngine(WithMaxInFlight(inFlight))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = submitAll(t, e, engineGroupByQueries)
		e.Close()
	}
	for i, res := range results[0] {
		if got, want := servedView(results[1][i]), servedView(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: engine@8 %+v, engine@1 %+v", i, got, want)
		}
	}
	if cols := results[0][0].Columns; cols[len(cols)-1] != "group_count" {
		t.Fatalf("served GROUP BY columns = %v", cols)
	}
}

// TestEngineGroupByProgress: a served GROUP BY reports one progress
// update per round of its Stats, the grouping's rounds numbered on from
// the statement's, and the last update's totals are the Stats'.
func TestEngineGroupByProgress(t *testing.T) {
	e, err := openEngineDB().NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var mu sync.Mutex
	var updates []RoundUpdate
	f, err := e.SubmitWithProgress(context.Background(), engineGroupByQueries[0], func(u RoundUpdate) {
		mu.Lock()
		updates = append(updates, u)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Result(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(updates) != res.Stats.Rounds || len(updates) == 0 {
		t.Fatalf("%d updates for %d rounds", len(updates), res.Stats.Rounds)
	}
	for i, u := range updates {
		if u.Round != i+1 {
			t.Fatalf("update %d reports round %d", i, u.Round)
		}
	}
	if last := updates[len(updates)-1]; last.TasksTotal != res.Stats.Tasks || last.AssignmentsTotal != res.Stats.Assignments {
		t.Fatalf("last update %+v, stats %+v", last, res.Stats)
	}
}

// TestEngineGroupByNeverSharesUngroupedAnswer: two statements that
// differ only in GROUP BY are two answers; neither is served from the
// other's cached or in-flight execution.
func TestEngineGroupByNeverSharesUngroupedAnswer(t *testing.T) {
	for _, order := range [][]string{
		{engineGroupByQueries[0], engineGroupByQueries[1]},
		{engineGroupByQueries[1], engineGroupByQueries[0]},
	} {
		e, err := openEngineDB().NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		var cols [2][]string
		for i, q := range order {
			f, err := e.Submit(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Result(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = res.Columns
		}
		st := e.Stats()
		e.Close()
		if st.QueriesCached+st.QueriesAttached != 0 || reflect.DeepEqual(cols[0], cols[1]) {
			t.Fatalf("shared an answer across GROUP BY: %v vs %v, %+v", cols[0], cols[1], st)
		}
	}
}

// TestEngineGroupByWarmRestart: an engine restarted on its ledger
// re-serves a GROUP BY statement without a new HIT, from the journalled
// answer or, with the answer cache off, from the journalled verdicts of
// the statement's and the grouping's tasks alike.
func TestEngineGroupByWarmRestart(t *testing.T) {
	for _, cache := range []int{0, -1} {
		dir := t.TempDir()
		serve := func() (*Result, EngineStats) {
			e, err := openEngineDB().NewEngine(WithLedgerDir(dir), WithLedgerFsync("never"), WithResultCache(cache))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			f, err := e.Submit(context.Background(), engineGroupByQueries[0])
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Result(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return res, e.Stats()
		}
		cold, st := serve()
		if st.HITsIssued == 0 {
			t.Fatalf("result cache %d: the cold run issued no HITs", cache)
		}
		warm, st := serve()
		if st.HITsIssued != 0 || st.AssignmentsIssued != 0 {
			t.Fatalf("result cache %d: warm restart issued %d HITs (%d assignments)", cache, st.HITsIssued, st.AssignmentsIssued)
		}
		if got, want := servedView(warm), servedView(cold); !reflect.DeepEqual(got, want) {
			t.Fatalf("result cache %d: warm %+v, cold %+v", cache, got, want)
		}
	}
}
