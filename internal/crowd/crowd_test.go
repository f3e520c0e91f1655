package crowd

import (
	"math"
	"testing"

	"cdb/internal/stats"
)

func TestPoolAccuracyDistribution(t *testing.T) {
	rng := stats.NewRNG(1)
	p := NewPool(5000, 0.8, 0.1, rng)
	if p.Size() != 5000 {
		t.Fatalf("size = %d", p.Size())
	}
	var sum float64
	for _, w := range p.Workers() {
		a := w.LatentAccuracy()
		if a < 0.05 || a > 0.99 {
			t.Fatalf("accuracy out of clamp: %v", a)
		}
		sum += a
	}
	mean := sum / 5000
	if math.Abs(mean-0.8) > 0.01 {
		t.Fatalf("mean accuracy = %v, want ~0.8", mean)
	}
}

func TestWorkerAnswerChoiceAccuracy(t *testing.T) {
	rng := stats.NewRNG(2)
	p := NewPool(1, 0.8, 0, rng)
	w := p.Workers()[0]
	correct := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if w.AnswerChoice(1, 2) == 1 {
			correct++
		}
	}
	rate := float64(correct) / n
	if math.Abs(rate-w.LatentAccuracy()) > 0.02 {
		t.Fatalf("empirical accuracy %v vs latent %v", rate, w.LatentAccuracy())
	}
}

func TestWorkerAnswerChoiceWrongAnswersUniform(t *testing.T) {
	rng := stats.NewRNG(3)
	p := NewPool(1, 0.5, 0, rng)
	w := p.Workers()[0]
	counts := map[int]int{}
	for i := 0; i < 30000; i++ {
		counts[w.AnswerChoice(0, 4)]++
	}
	// Wrong options 1..3 should be roughly equally likely.
	for c := 1; c <= 3; c++ {
		if counts[c] < 3500 || counts[c] > 6500 {
			t.Fatalf("wrong option %d chosen %d times: not uniform (%v)", c, counts[c], counts)
		}
	}
	// Degenerate: single choice always returns truth.
	if w.AnswerChoice(0, 1) != 0 {
		t.Fatal("single-option task must return the truth")
	}
}

func TestWorkerAnswerBool(t *testing.T) {
	rng := stats.NewRNG(4)
	p := NewPool(1, 0.99, 0, rng)
	w := p.Workers()[0]
	agree := 0
	for i := 0; i < 1000; i++ {
		if w.AnswerBool(true) {
			agree++
		}
	}
	if agree < 950 {
		t.Fatalf("high-accuracy worker agreed only %d/1000", agree)
	}
}

// answerMulti answers a multi-choice task as w: each option judged
// independently with the worker's accuracy.
func answerMulti(w *Worker, truth []bool) []bool {
	out := make([]bool, len(truth))
	for i, tv := range truth {
		if w.rng.Bool(w.acc) {
			out[i] = tv
		} else {
			out[i] = !tv
		}
	}
	return out
}

func TestWorkerAnswerMulti(t *testing.T) {
	rng := stats.NewRNG(5)
	p := NewPool(1, 0.95, 0, rng)
	w := p.Workers()[0]
	truth := []bool{true, false, true, false}
	correctBits := 0
	for i := 0; i < 1000; i++ {
		got := answerMulti(w, truth)
		for j := range truth {
			if got[j] == truth[j] {
				correctBits++
			}
		}
	}
	if rate := float64(correctBits) / 4000; rate < 0.9 {
		t.Fatalf("multi-choice per-bit accuracy = %v", rate)
	}
}

func TestWorkerAnswerFill(t *testing.T) {
	rng := stats.NewRNG(6)
	p := NewPool(1, 0.7, 0, rng)
	w := p.Workers()[0]
	truthCount := 0
	for i := 0; i < 2000; i++ {
		got := w.AnswerFill("boston", []string{"austin", "denver"})
		switch got {
		case "boston":
			truthCount++
		case "austin", "denver":
		default:
			t.Fatalf("unexpected fill answer %q", got)
		}
	}
	if rate := float64(truthCount) / 2000; math.Abs(rate-0.7) > 0.05 {
		t.Fatalf("truth rate = %v", rate)
	}
	// Empty wrong pool: corrupted truth, never equal to truth.
	sawCorrupt := false
	for i := 0; i < 200; i++ {
		if got := w.AnswerFill("xy", nil); got != "xy" {
			sawCorrupt = true
			if got == "" {
				t.Fatal("corrupted answer should be non-empty")
			}
		}
	}
	if !sawCorrupt {
		t.Fatal("worker with 0.7 accuracy never corrupted in 200 tries")
	}
}

func TestDistinctArrivals(t *testing.T) {
	rng := stats.NewRNG(7)
	p := NewPool(10, 0.8, 0.1, rng)
	ws := p.DistinctArrivals(5)
	if len(ws) != 5 {
		t.Fatalf("got %d workers", len(ws))
	}
	seen := map[int]bool{}
	for _, w := range ws {
		if seen[w.ID] {
			t.Fatal("duplicate worker in distinct arrivals")
		}
		seen[w.ID] = true
	}
	// Requesting more than the pool size caps at the pool.
	if got := p.DistinctArrivals(99); len(got) != 10 {
		t.Fatalf("capped arrivals = %d", len(got))
	}
}

// TestDistinctArrivalsMatchesPerm pins the in-place shuffle to what it
// replaced: over 1 000 draws, the workers are the first k of rng.Perm on
// a clone of the pool's generator, and both generators end at the same
// stream position.
func TestDistinctArrivalsMatchesPerm(t *testing.T) {
	rng := stats.NewRNG(11)
	p := NewPool(50, 0.8, 0.1, rng)
	ref := *rng
	for draw := 0; draw < 1000; draw++ {
		k := 1 + draw%7
		ws := p.DistinctArrivals(k)
		perm := ref.Perm(p.Size())
		if len(ws) != k {
			t.Fatalf("draw %d: %d workers, want %d", draw, len(ws), k)
		}
		for i, w := range ws {
			if w != p.Workers()[perm[i]] {
				t.Fatalf("draw %d: worker %d is %d, rng.Perm picks %d", draw, i, w.ID, perm[i])
			}
		}
	}
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("stream position diverged: next Uint64 %d, want %d", got, want)
	}
}

func TestArrive(t *testing.T) {
	rng := stats.NewRNG(8)
	p := NewPool(3, 0.8, 0.1, rng)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[p.Arrive().ID] = true
	}
	if len(seen) != 3 {
		t.Fatalf("arrivals covered %d/3 workers", len(seen))
	}
}

func TestPricing(t *testing.T) {
	pr := DefaultPricing
	if pr.HITs(0) != 0 || pr.HITs(-5) != 0 {
		t.Fatal("non-positive assignments should cost nothing")
	}
	if pr.HITs(10) != 1 || pr.HITs(11) != 2 || pr.HITs(25) != 3 {
		t.Fatal("HIT rounding broken")
	}
	if math.Abs(pr.Cost(25)-0.3) > 1e-12 {
		t.Fatalf("cost = %v", pr.Cost(25))
	}
	zero := Pricing{}
	if zero.HITs(100) != 0 {
		t.Fatal("zero pricing should yield zero HITs")
	}
}

func TestRouter(t *testing.T) {
	rng := stats.NewRNG(9)
	amt := NewMarket("AMT", true, NewPool(5, 0.9, 0.05, rng))
	cf := NewMarket("CrowdFlower", false, NewPool(5, 0.8, 0.1, rng))
	r := NewRouter(amt, cf)
	first := r.Route()
	second := r.Route()
	third := r.Route()
	if first != amt || second != cf || third != amt {
		t.Fatal("router rotation broken")
	}
	if !amt.AssignControl || cf.AssignControl {
		t.Fatal("assignment-control flags wrong")
	}
	empty := NewRouter()
	if empty.Route() != nil {
		t.Fatal("empty router should return nil")
	}
}

func TestTaskTypeString(t *testing.T) {
	want := map[TaskType]string{
		SingleChoice: "single-choice",
		MultiChoice:  "multi-choice",
		FillBlank:    "fill-in-blank",
		Collect:      "collection",
		TaskType(9):  "TaskType(9)",
	}
	for k, v := range want {
		if k.String() != v {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), v)
		}
	}
}

func TestDeterministicPools(t *testing.T) {
	a := NewPool(20, 0.8, 0.1, stats.NewRNG(42))
	b := NewPool(20, 0.8, 0.1, stats.NewRNG(42))
	for i := range a.Workers() {
		if a.Workers()[i].LatentAccuracy() != b.Workers()[i].LatentAccuracy() {
			t.Fatal("pools from equal seeds differ")
		}
	}
}
