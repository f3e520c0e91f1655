package quality

import (
	"math"
	"testing"

	"cdb/internal/sim"
	"cdb/internal/stats"
)

func TestMajorityVote(t *testing.T) {
	for _, c := range []struct {
		yes, n int
		match  bool
		conf   float64
	}{
		{2, 3, true, 2.0 / 3},
		{1, 3, false, 1 - float64(1)/3},
		{0, 5, false, 1},
		{5, 5, true, 1},
		{1, 2, false, 0.5}, // a tie is a non-match
		{2, 4, false, 0.5},
	} {
		match, conf := Majority(c.yes, c.n)
		if match != c.match || conf != c.conf {
			t.Errorf("Majority(%d, %d) = %v at %v, want %v at %v", c.yes, c.n, match, conf, c.match, c.conf)
		}
	}
}

func TestBayesianPosteriorUniformPrior(t *testing.T) {
	p := BayesianPosterior(ChoiceTask{Choices: 3}, func(int) float64 { return 0.8 })
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("no-answer posterior should be uniform: %v", p)
		}
	}
}

func TestBayesianPosteriorWeighsQuality(t *testing.T) {
	// One accurate worker says 0, two poor workers say 1: the accurate
	// one should win.
	task := ChoiceTask{Choices: 2, Answers: []ChoiceAnswer{
		{Worker: 0, Choice: 0}, {Worker: 1, Choice: 1}, {Worker: 2, Choice: 1},
	}}
	qual := map[int]float64{0: 0.95, 1: 0.55, 2: 0.55}
	p := BayesianPosterior(task, func(w int) float64 { return qual[w] })
	if p[0] <= p[1] {
		t.Fatalf("high-quality dissent should dominate: %v", p)
	}
	// Paper's Eq. 2 closed form for this case.
	num0 := 0.95 * 0.45 * 0.45
	num1 := 0.05 * 0.55 * 0.55
	want0 := num0 / (num0 + num1)
	if math.Abs(p[0]-want0) > 1e-9 {
		t.Fatalf("posterior = %v, want %v", p[0], want0)
	}
}

func TestBayesianPosteriorManyAnswersNoUnderflow(t *testing.T) {
	task := ChoiceTask{Choices: 2}
	for i := 0; i < 2000; i++ {
		task.Answers = append(task.Answers, ChoiceAnswer{Worker: i, Choice: 1})
	}
	p := BayesianPosterior(task, func(int) float64 { return 0.7 })
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) || p[1] < 0.999 {
		t.Fatalf("posterior unstable: %v", p)
	}
}

func TestInferEMRecoversQualities(t *testing.T) {
	// Simulate 3 good workers (0.9) and 2 bad (0.55) over 300 binary
	// tasks; EM should estimate good > bad and get most truths right.
	rng := stats.NewRNG(42)
	pool := []float64{0.9, 0.9, 0.9, 0.55, 0.55}
	const tasks = 300
	truth := make([]int, tasks)
	taskList := make([]ChoiceTask, tasks)
	for i := 0; i < tasks; i++ {
		truth[i] = rng.Intn(2)
		taskList[i].Choices = 2
		for w, acc := range pool {
			choice := truth[i]
			if !rng.Bool(acc) {
				choice = 1 - choice
			}
			taskList[i].Answers = append(taskList[i].Answers, ChoiceAnswer{Worker: w, Choice: choice})
		}
	}
	m := NewWorkerModel()
	post := m.InferEM(taskList, 50)
	for w := 0; w < 3; w++ {
		if m.Quality(w) < 0.8 {
			t.Fatalf("good worker %d estimated %v", w, m.Quality(w))
		}
	}
	for w := 3; w < 5; w++ {
		if m.Quality(w) > 0.75 {
			t.Fatalf("bad worker %d estimated %v", w, m.Quality(w))
		}
	}
	correct := 0
	for i := range taskList {
		if EstimateTruth(post[i]) == truth[i] {
			correct++
		}
	}
	if correct < tasks*95/100 {
		t.Fatalf("EM truth accuracy %d/%d too low", correct, tasks)
	}
}

func TestInferEMBeatsMajorityVoting(t *testing.T) {
	// A reliable minority vs an unreliable majority: EM should beat MV.
	rng := stats.NewRNG(7)
	pool := []float64{0.95, 0.95, 0.52, 0.52, 0.52}
	const tasks = 400
	truth := make([]int, tasks)
	taskList := make([]ChoiceTask, tasks)
	for i := 0; i < tasks; i++ {
		truth[i] = rng.Intn(2)
		taskList[i].Choices = 2
		for w, acc := range pool {
			choice := truth[i]
			if !rng.Bool(acc) {
				choice = 1 - choice
			}
			taskList[i].Answers = append(taskList[i].Answers, ChoiceAnswer{Worker: w, Choice: choice})
		}
	}
	m := NewWorkerModel()
	post := m.InferEM(taskList, 50)
	emCorrect, mvCorrect := 0, 0
	for i := range taskList {
		if EstimateTruth(post[i]) == truth[i] {
			emCorrect++
		}
		yes := 0
		for _, a := range taskList[i].Answers {
			yes += a.Choice
		}
		if match, _ := Majority(yes, len(taskList[i].Answers)); match == (truth[i] == 1) {
			mvCorrect++
		}
	}
	if emCorrect <= mvCorrect {
		t.Fatalf("EM (%d) should beat MV (%d) with a reliable minority", emCorrect, mvCorrect)
	}
}

func TestWorkerModelDefaults(t *testing.T) {
	m := NewWorkerModel()
	if m.Quality(99) != 0.7 {
		t.Fatalf("default quality = %v", m.Quality(99))
	}
	m.Set(99, 0.9)
	if m.Quality(99) != 0.9 {
		t.Fatal("Set not persisted")
	}
}

func TestEstimateTruth(t *testing.T) {
	if EstimateTruth(nil) != -1 {
		t.Fatal("empty posterior should be -1")
	}
	if EstimateTruth([]float64{0.2, 0.5, 0.3}) != 1 {
		t.Fatal("argmax broken")
	}
}

func TestDecomposeMulti(t *testing.T) {
	answers := []MultiAnswer{
		{Worker: 0, Selected: []bool{true, false, true}},
		{Worker: 1, Selected: []bool{true, true, false}},
	}
	singles := DecomposeMulti(3, answers)
	if len(singles) != 3 {
		t.Fatalf("decomposed into %d", len(singles))
	}
	if singles[0].Answers[0].Choice != 1 || singles[0].Answers[1].Choice != 1 {
		t.Fatal("option 0 should be yes/yes")
	}
	if singles[1].Answers[0].Choice != 0 || singles[1].Answers[1].Choice != 1 {
		t.Fatal("option 1 should be no/yes")
	}
}

func TestPivotAnswer(t *testing.T) {
	simFn := func(a, b string) float64 { return sim.Jaccard2Gram(a, b) }
	answers := []FillAnswer{
		{Worker: 0, Text: "massachusetts"},
		{Worker: 1, Text: "massachusets"},
		{Worker: 2, Text: "california"},
	}
	if got := PivotAnswer(answers, simFn); got != "massachusetts" && got != "massachusets" {
		t.Fatalf("pivot = %q", got)
	}
	if PivotAnswer(nil, simFn) != "" {
		t.Fatal("empty answers should yield empty pivot")
	}
}

func TestChoiceGainPrefersUncertainTasks(t *testing.T) {
	certain := []float64{0.99, 0.01}
	uncertain := []float64{0.5, 0.5}
	if ChoiceGain(uncertain, 0.8) <= ChoiceGain(certain, 0.8) {
		t.Fatal("uncertain task should promise more gain")
	}
	if ChoiceGain([]float64{1}, 0.8) != 0 {
		t.Fatal("single-choice degenerate gain should be 0")
	}
}

func TestChoiceGainHigherQualityHelpsMore(t *testing.T) {
	p := []float64{0.5, 0.5}
	if ChoiceGain(p, 0.95) <= ChoiceGain(p, 0.6) {
		t.Fatal("a better worker should reduce entropy more")
	}
	// A coin-flip worker (q=0.5 on binary) provides no information.
	if g := ChoiceGain(p, 0.5); math.Abs(g) > 1e-9 {
		t.Fatalf("uninformative worker gain = %v", g)
	}
}

func TestFillConsistency(t *testing.T) {
	simFn := func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0
	}
	same := []FillAnswer{{Text: "x"}, {Text: "x"}, {Text: "x"}}
	if c := FillConsistency(same, simFn); c != 1 {
		t.Fatalf("identical answers consistency = %v", c)
	}
	mixed := []FillAnswer{{Text: "x"}, {Text: "y"}}
	if c := FillConsistency(mixed, simFn); c != 0 {
		t.Fatalf("disjoint answers consistency = %v", c)
	}
	if FillConsistency([]FillAnswer{{Text: "x"}}, simFn) != 0 {
		t.Fatal("single answer consistency should be 0")
	}
}

func TestChao92(t *testing.T) {
	if Chao92(map[string]int{}) != 0 {
		t.Fatal("empty counts should be 0")
	}
	// All singletons: no coverage; fall back to 2M.
	if got := Chao92(map[string]int{"a": 1, "b": 1}); got != 4 {
		t.Fatalf("all-singleton estimate = %v, want 4", got)
	}
	// Heavy duplication: estimate close to observed M.
	got := Chao92(map[string]int{"a": 5, "b": 5, "c": 5})
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("saturated estimate = %v, want 3", got)
	}
}

func TestCompletenessScore(t *testing.T) {
	if CompletenessScore(50, 100) != 0.5 {
		t.Fatal("half-complete should be 0.5")
	}
	if CompletenessScore(100, 100) != 0 {
		t.Fatal("complete should be 0")
	}
	if CompletenessScore(10, 0) != 0 {
		t.Fatal("no estimate should be 0")
	}
}

func TestAssignChoice(t *testing.T) {
	posteriors := [][]float64{
		{0.99, 0.01}, // near certain
		{0.5, 0.5},   // maximally uncertain
		{0.7, 0.3},
	}
	got := AssignChoice(posteriors, nil, 0.8, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("assignment = %v, want [1 2]", got)
	}
	// Closed tasks are skipped.
	got = AssignChoice(posteriors, func(i int) bool { return i != 1 }, 0.8, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("assignment with closed task = %v", got)
	}
	if got := AssignChoice(nil, nil, 0.8, 3); len(got) != 0 {
		t.Fatalf("empty assignment = %v", got)
	}
}

func TestAssignFill(t *testing.T) {
	simFn := func(a, b string) float64 {
		if a == b {
			return 1
		}
		return 0
	}
	sets := [][]FillAnswer{
		{{Text: "x"}, {Text: "x"}}, // consistent
		{{Text: "x"}, {Text: "y"}}, // inconsistent: most in need
	}
	got := AssignFill(sets, nil, simFn, 1)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("fill assignment = %v, want [1]", got)
	}
}

func TestConfidentEnough(t *testing.T) {
	if !ConfidentEnough([]float64{0.97, 0.03}, 0.95) {
		t.Fatal("peaked posterior should be confident")
	}
	if ConfidentEnough([]float64{0.6, 0.4}, 0.95) {
		t.Fatal("flat posterior should not be confident")
	}
	if ConfidentEnough(nil, 0.9) {
		t.Fatal("empty posterior cannot be confident")
	}
}

func TestCalibrateGolden(t *testing.T) {
	m := NewWorkerModel()
	m.CalibrateGolden(1, 10, 10) // perfect on golden tasks
	if m.Quality(1) <= 0.8 {
		t.Fatalf("golden-perfect worker quality = %v", m.Quality(1))
	}
	m.CalibrateGolden(2, 0, 10) // hopeless on golden tasks
	if m.Quality(2) >= 0.5 {
		t.Fatalf("golden-hopeless worker quality = %v", m.Quality(2))
	}
	m.CalibrateGolden(3, 5, 0) // no golden tasks: unchanged
	if m.Quality(3) != m.Default {
		t.Fatalf("no-golden worker quality = %v", m.Quality(3))
	}
	// Calibration stays a valid probability under smoothing.
	m.CalibrateGolden(4, 1000, 1000)
	if q := m.Quality(4); q > 0.99 {
		t.Fatalf("calibrated quality escaped clamp: %v", q)
	}
}

func TestCalibratorUnfittedIsIdentity(t *testing.T) {
	c := NewCalibrator(10)
	if c.Prob(0.42) != 0.42 {
		t.Fatal("unfitted calibrator must return raw similarity")
	}
	c.Observe(0.5, true)
	if c.Fitted() {
		t.Fatal("one observation should not count as fitted")
	}
}

func TestCalibratorLearnsSharpThreshold(t *testing.T) {
	// Ground truth: everything above 0.6 matches, below never does.
	c := NewCalibrator(10)
	rng := stats.NewRNG(5)
	for i := 0; i < 500; i++ {
		s := rng.Float64()
		c.Observe(s, s > 0.6)
	}
	if !c.Fitted() {
		t.Fatal("should be fitted after 500 observations")
	}
	if lo := c.Prob(0.3); lo > 0.2 {
		t.Fatalf("P(match | sim=0.3) = %v, want near 0", lo)
	}
	if hi := c.Prob(0.9); hi < 0.8 {
		t.Fatalf("P(match | sim=0.9) = %v, want near 1", hi)
	}
}

func TestCalibratorMonotone(t *testing.T) {
	c := NewCalibrator(10)
	rng := stats.NewRNG(9)
	// Noisy, non-monotone raw rates.
	for i := 0; i < 300; i++ {
		s := rng.Float64()
		c.Observe(s, rng.Bool(0.2+0.6*s))
	}
	curve := c.Curve()
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-12 {
			t.Fatalf("isotonic violated at bin %d: %v", i, curve)
		}
	}
	for _, v := range curve {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", curve)
		}
	}
}

func TestCalibratorBinEdges(t *testing.T) {
	c := NewCalibrator(4)
	c.Observe(-0.5, false) // clamped into bin 0
	c.Observe(1.5, true)   // clamped into last bin
	if c.Observations() != 2 {
		t.Fatalf("observations = %d", c.Observations())
	}
	if NewCalibrator(0).bins != 10 {
		t.Fatal("default bins should be 10")
	}
}

// TestInferEMParallelDeterministic forces the sharded E-step and checks
// that posteriors and the worker model are bit-identical to the serial
// run for every worker count.
func TestInferEMParallelDeterministic(t *testing.T) {
	oldW, oldT := EMWorkers, emParallelThreshold
	defer func() { EMWorkers, emParallelThreshold = oldW, oldT }()
	emParallelThreshold = 1

	rng := stats.NewRNG(17)
	pool := []float64{0.92, 0.85, 0.7, 0.6, 0.55}
	taskList := make([]ChoiceTask, 200)
	for i := range taskList {
		truth := rng.Intn(2)
		taskList[i].Choices = 2
		for w, acc := range pool {
			choice := truth
			if !rng.Bool(acc) {
				choice = 1 - choice
			}
			taskList[i].Answers = append(taskList[i].Answers, ChoiceAnswer{Worker: w, Choice: choice})
		}
	}

	EMWorkers = 1
	serial := NewWorkerModel()
	want := serial.InferEM(taskList, 50)
	for _, workers := range []int{2, 3, 8} {
		EMWorkers = workers
		m := NewWorkerModel()
		got := m.InferEM(taskList, 50)
		for i := range want {
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("workers=%d: posterior[%d][%d] = %v, serial %v",
						workers, i, c, got[i][c], want[i][c])
				}
			}
		}
		for w := range pool {
			if m.Quality(w) != serial.Quality(w) {
				t.Fatalf("workers=%d: quality[%d] = %v, serial %v",
					workers, w, m.Quality(w), serial.Quality(w))
			}
		}
	}
}
