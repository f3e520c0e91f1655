package engine

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"cdb/internal/crowd"
	"cdb/internal/dataset"
	"cdb/internal/stats"
)

// clusterConfig generates a slightly larger catalog than testConfig:
// every paper query shape needs at least two tuple-graph components
// for a partition test to be non-vacuous.
func clusterConfig(d *dataset.Data, seed uint64) Config {
	return Config{
		Catalog: d.Catalog,
		Oracle:  d.Oracle,
		Pool:    crowd.NewPool(50, 0.8, 0.1, stats.NewRNG(3)),
		Seed:    seed,
	}
}

// mergeShardAnswers reassembles per-shard answers into single-node row
// order by sorting the union on the merge keys each Answer carries.
func mergeShardAnswers(t *testing.T, answers []*Answer) (rows [][]string, conf []float64) {
	t.Helper()
	type row struct {
		key  []int
		cols []string
		conf float64
	}
	var merged []row
	for _, a := range answers {
		if a.Shard == nil {
			t.Fatal("shard answer missing sidecar")
		}
		if len(a.Shard.MergeKeys) != len(a.Rows) {
			t.Fatalf("sidecar has %d merge keys for %d rows", len(a.Shard.MergeKeys), len(a.Rows))
		}
		for i, r := range a.Rows {
			c := 1.0
			if a.Report.Confidence != nil {
				c = a.Report.Confidence[i]
			}
			merged = append(merged, row{key: a.Shard.MergeKeys[i], cols: r, conf: c})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i].key, merged[j].key
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	for _, m := range merged {
		rows = append(rows, m.cols)
		conf = append(conf, m.conf)
	}
	return rows, conf
}

// TestSubmitShardMergesBitIdentical runs every paper query whole on
// one engine and component-sharded across two fresh engines, and
// requires the merged shards to reproduce the whole run exactly: rows
// in order, confidences, summed task/assignment counts, maxed rounds,
// summed truth counts.
func TestSubmitShardMergesBitIdentical(t *testing.T) {
	d := dataset.GenPaper(dataset.Config{Seed: 7, Scale: 0.1})
	qs := dataset.Queries("paper")
	for _, label := range dataset.QueryLabels() {
		query := qs[label]

		whole, err := New(clusterConfig(d, 42))
		if err != nil {
			t.Fatal(err)
		}
		h, err := whole.Submit(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := h.wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		keys, err := whole.ComponentKeys(query)
		if err != nil {
			t.Fatal(err)
		}
		whole.Close()
		if len(keys) < 2 {
			t.Fatalf("%s: only %d components", label, len(keys))
		}
		owner := map[string]int{}
		for i, k := range keys {
			owner[k] = i % 2
		}

		var answers []*Answer
		tasks, asks, rounds := 0, 0, 0
		truthTotal, truthCorrect := 0, 0
		for s := 0; s < 2; s++ {
			s := s
			eng, err := New(clusterConfig(d, 42))
			if err != nil {
				t.Fatal(err)
			}
			run := &ShardRun{Fleet: "test", Target: "s" + string(rune('0'+s)),
				Owned: func(k string) bool { return owner[k] == s }}
			h, err := eng.SubmitShard(context.Background(), query, run, nil)
			if err != nil {
				t.Fatal(err)
			}
			ans, err := h.wait(context.Background())
			if err != nil {
				t.Fatalf("%s shard %d: %v", label, s, err)
			}
			answers = append(answers, ans)
			tasks += ans.Report.Metrics.Tasks
			asks += ans.Report.Assignments
			if ans.Report.Metrics.Rounds > rounds {
				rounds = ans.Report.Metrics.Rounds
			}
			truthTotal += ans.Shard.TruthTotal
			truthCorrect += ans.Shard.TruthCorrect
			eng.Close()
		}

		rows, conf := mergeShardAnswers(t, answers)
		if !reflect.DeepEqual(rows, ref.Rows) {
			t.Fatalf("%s: merged rows %v, whole %v", label, rows, ref.Rows)
		}
		for i := range conf {
			want := 1.0
			if ref.Report.Confidence != nil {
				want = ref.Report.Confidence[i]
			}
			if conf[i] != want {
				t.Fatalf("%s: row %d confidence %v, whole %v", label, i, conf[i], want)
			}
		}
		if tasks != ref.Report.Metrics.Tasks || asks != ref.Report.Assignments {
			t.Fatalf("%s: merged tasks/assignments %d/%d, whole %d/%d",
				label, tasks, asks, ref.Report.Metrics.Tasks, ref.Report.Assignments)
		}
		if rounds != ref.Report.Metrics.Rounds {
			t.Fatalf("%s: merged rounds %d, whole %d", label, rounds, ref.Report.Metrics.Rounds)
		}
		p, r := ref.Report.Metrics.Precision, ref.Report.Metrics.Recall
		var mp, mr float64
		switch {
		case len(rows) == 0 && truthTotal == 0:
			mp, mr = 1, 1
		case len(rows) == 0:
			mp, mr = 0, 0
		case truthTotal == 0:
			mp, mr = float64(truthCorrect)/float64(len(rows)), 1
		default:
			mp = float64(truthCorrect) / float64(len(rows))
			mr = float64(truthCorrect) / float64(truthTotal)
		}
		if mp != p || mr != r {
			t.Fatalf("%s: merged precision/recall %v/%v, whole %v/%v", label, mp, mr, p, r)
		}
	}
}

// TestCacheDeltaReplication checks the replication loop end to end in
// process: an engine that paid for verdicts exports them, a peer
// imports them, and the peer's next identical query is served entirely
// from remote verdicts — cache hits with zero fresh crowd work.
func TestCacheDeltaReplication(t *testing.T) {
	query := dataset.Queries("paper")["2J"]

	a, err := New(testConfig(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(testConfig(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same config, different fingerprints: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	c, err := New(testConfig(t, 43))
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("different seeds, same fingerprint")
	}
	c.Close()

	h, err := a.Submit(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := h.wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	entries, seq := a.CacheDelta(0)
	if len(entries) == 0 {
		t.Fatal("no delta after a paid run")
	}
	if seq != a.CacheSeq() {
		t.Fatalf("delta seq %d, CacheSeq %d", seq, a.CacheSeq())
	}
	if tail, _ := a.CacheDelta(seq); len(tail) != 0 {
		t.Fatalf("delta past the head returned %d entries", len(tail))
	}

	if n := b.ImportVerdicts(entries); n != len(entries) {
		t.Fatalf("imported %d of %d", n, len(entries))
	}
	if n := b.ImportVerdicts(entries); n != 0 {
		t.Fatalf("re-import accepted %d entries", n)
	}

	h, err = b.Submit(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, ref.Rows) {
		t.Fatalf("imported-verdict run diverged: %v vs %v", got.Rows, ref.Rows)
	}
	st := b.Stats()
	if st.AssignmentsIssued != 0 {
		t.Fatalf("peer issued %d assignments despite full import", st.AssignmentsIssued)
	}
	if st.RemoteHits == 0 || st.RemoteImported == 0 {
		t.Fatalf("remote counters not moving: hits=%d imported=%d", st.RemoteHits, st.RemoteImported)
	}
	if got.Report.CachedTasks != got.Report.Metrics.Tasks {
		t.Fatalf("remote-served tasks not reported as cache hits: %d of %d",
			got.Report.CachedTasks, got.Report.Metrics.Tasks)
	}

	// A peer behind the truncation horizon gets the full-dump fallback
	// (from the payer: remote-flagged entries never re-export).
	full, _ := a.CacheDelta(-1)
	if len(full) == 0 {
		t.Fatal("full-dump fallback returned nothing")
	}
	for _, en := range full {
		if en.Key == "" {
			t.Fatal("full dump produced an empty key")
		}
	}
}
