package tomography

import (
	"math"
	"slices"
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/profile"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// syntheticModel builds a Model directly (no compiler): a diamond feeding a
// loop, with distinguishable block costs.
//
//	b0 -Br-> b1|b2 -> b3(head) -Br-> b4(body)|b5(ret); b4 -> b3
func syntheticModel(t *testing.T) *Model {
	t.Helper()
	p := &cfg.Proc{
		Name:  "synth",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Br{Cond: 0, True: 1, False: 2}},
			{ID: 1, Term: ir.Jmp{Target: 3}},
			{ID: 2, Term: ir.Jmp{Target: 3}},
			{ID: 3, Term: ir.Br{Cond: 0, True: 4, False: 5}},
			{ID: 4, Term: ir.Jmp{Target: 3}},
			{ID: 5, Term: ir.Ret{Val: -1}},
		},
	}
	costs := &markov.Costs{
		Block:         []float64{20, 150, 30, 15, 55, 10},
		Edge:          make(map[[2]ir.BlockID]float64),
		EntryOverhead: 12,
	}
	for _, e := range p.Edges() {
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = 0
	}
	costs.Edge[[2]ir.BlockID{3, 4}] = 3 // taken-branch penalty flavor

	return newModel(p, costs, markov.EnumerateOptions{MaxVisits: 25, MaxPaths: 100000}, nil)
}

func trueProbs(m *Model, p01, p34 float64) markov.EdgeProbs {
	ep := markov.Uniform(m.Proc)
	ep[[2]ir.BlockID{0, 1}] = p01
	ep[[2]ir.BlockID{0, 2}] = 1 - p01
	ep[[2]ir.BlockID{3, 4}] = p34
	ep[[2]ir.BlockID{3, 5}] = 1 - p34
	return ep
}

// samplePath draws a random path through m's procedure under probs; rng
// returns uniform [0,1). ok is false if the walk does not absorb within
// maxSteps.
func samplePath(m *Model, probs markov.EdgeProbs, rng func() float64, maxSteps int) (path markov.Path, ok bool) {
	cur := m.Proc.Entry
	for step := 0; step < maxSteps; step++ {
		succs := m.Proc.Block(cur).Succs()
		if len(succs) == 0 {
			return path, true
		}
		u, acc, next := rng(), 0.0, succs[len(succs)-1]
		for _, s := range succs {
			if acc += probs[[2]ir.BlockID{cur, s}]; u < acc {
				next = s
				break
			}
		}
		e, _ := m.index.Index([2]ir.BlockID{cur, next})
		k := slices.IndexFunc(path, func(a markov.Arc) bool { return a.Edge == e })
		if k < 0 {
			k, path = len(path), append(path, markov.Arc{Edge: e})
		}
		path[k].Count++
		cur = next
	}
	return nil, false
}

// sampleDurations draws n durations from the true chain, quantized to the
// tick grid like the mote's timer does.
func sampleDurations(t testing.TB, m *Model, truth markov.EdgeProbs, n int, tickDiv int, seed int64) []float64 {
	t.Helper()
	if _, err := markov.New(m.Proc, truth); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		path, ok := samplePath(m, truth, rng.Float64, 1_000_000)
		if !ok {
			t.Fatal("non-absorbing sample")
		}
		d := markov.PathTimes(m.Proc, m.index, []markov.Path{path}, m.Costs)[0]
		if tickDiv > 1 {
			// Start phase is uniform over the tick; measured duration is
			// the tick difference scaled back to cycles.
			phase := float64(rng.Intn(tickDiv))
			d = (math.Floor((d+phase)/float64(tickDiv)) - math.Floor(phase/float64(tickDiv))) * float64(tickDiv)
		}
		out = append(out, d)
	}
	return out
}

func branchMAE(t *testing.T, m *Model, est, truth markov.EdgeProbs) float64 {
	t.Helper()
	mae, err := stats.MAE(m.ProbVector(est), m.ProbVector(truth))
	if err != nil {
		t.Fatal(err)
	}
	return mae
}

func TestEMSyntheticExact(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.3, 0.75)
	samples := sampleDurations(t, m, truth, 4000, 1, 7)
	est, st, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("EM did not converge: %+v", st)
	}
	if mae := branchMAE(t, m, est, truth); mae > 0.02 {
		t.Fatalf("EM MAE = %v, want < 0.02\nest=%v", mae, m.ProbVector(est))
	}
}

func TestEMSyntheticQuantized(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.55, 0.6)
	samples := sampleDurations(t, m, truth, 6000, 8, 21)
	est, _, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if mae := branchMAE(t, m, est, truth); mae > 0.05 {
		t.Fatalf("quantized EM MAE = %v, want < 0.05", mae)
	}
}

func TestEMConvergesFromFewSamples(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.2, 0.5)
	samples := sampleDurations(t, m, truth, 50, 8, 3)
	est, _, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Loose bound: with 50 samples the estimate is noisy but sane.
	if mae := branchMAE(t, m, est, truth); mae > 0.25 {
		t.Fatalf("small-sample EM MAE = %v, want < 0.25", mae)
	}
}

func TestEMErrorShrinksWithSamples(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.35, 0.65)
	var maes []float64
	for _, n := range []int{30, 300, 3000} {
		samples := sampleDurations(t, m, truth, n, 8, 11)
		est, _, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 8})
		if err != nil {
			t.Fatal(err)
		}
		maes = append(maes, branchMAE(t, m, est, truth))
	}
	if !(maes[2] < maes[0]) {
		t.Fatalf("error did not shrink with samples: %v", maes)
	}
	if maes[2] > 0.03 {
		t.Fatalf("large-sample error = %v, want < 0.03", maes[2])
	}
}

func TestMomentsSynthetic(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.3, 0.7)
	samples := sampleDurations(t, m, truth, 8000, 1, 13)
	fit, err := Moments{}.Fit(m, CountSamples(samples), nil)
	if err != nil {
		t.Fatal(err)
	}
	est := fit.Probs
	// Two unknowns, two moments: identifiable here, but coordinate descent
	// is approximate — accept a looser band than EM.
	if mae := branchMAE(t, m, est, truth); mae > 0.12 {
		t.Fatalf("moments MAE = %v, want < 0.12\nest=%v", mae, m.ProbVector(est))
	}
}

func TestHistogramSynthetic(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.4, 0.55)
	samples := sampleDurations(t, m, truth, 8000, 8, 17)
	fit, err := Histogram{}.Fit(m, CountSamples(samples), nil)
	if err != nil {
		t.Fatal(err)
	}
	est := fit.Probs
	if mae := branchMAE(t, m, est, truth); mae > 0.08 {
		t.Fatalf("histogram MAE = %v, want < 0.08\nest=%v", mae, m.ProbVector(est))
	}
}

func TestEstimatorInterface(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.3, 0.6)
	samples := sampleDurations(t, m, truth, 2000, 8, 19)
	for _, est := range []Estimator{EM{}, Moments{}, Histogram{}} {
		fit, err := est.Fit(m, CountSamples(samples), nil)
		if err != nil {
			t.Fatalf("%s: %v", est.Name(), err)
		}
		if _, err := markov.New(m.Proc, fit.Probs); err != nil {
			t.Fatalf("%s returned invalid probabilities: %v", est.Name(), err)
		}
	}
}

func TestNoBranchesShortCircuit(t *testing.T) {
	p := &cfg.Proc{
		Name:  "line",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Ret{Val: -1}},
		},
	}
	m := &Model{Proc: p, Costs: &markov.Costs{Block: []float64{1}, Edge: map[[2]ir.BlockID]float64{}}}
	probs, _, err := EstimateEM(m, []float64{5}, EMConfig{})
	if err != nil || len(probs) != 0 {
		t.Fatalf("no-branch estimate = %v, %v", probs, err)
	}
}

// TestEMDeterministic locks bit-for-bit reproducibility: the same samples
// must produce the identical estimate on every run (float accumulation must
// never follow map iteration order).
func TestEMDeterministic(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.37, 0.61)
	samples := sampleDurations(t, m, truth, 3000, 8, 41)
	first, _, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, _, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 8})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range first {
			if again[k] != v {
				t.Fatalf("run %d: edge %v differs: %v vs %v", i, k, again[k], v)
			}
		}
	}
}

func TestEMNoSamples(t *testing.T) {
	m := syntheticModel(t)
	if _, _, err := EstimateEM(m, nil, EMConfig{}); err == nil {
		t.Fatal("EM accepted empty sample set")
	}
}

// The end-to-end test: compile a sensor program, run it on the mote under a
// nondeterministic workload, measure only procedure-boundary timestamps,
// estimate branch probabilities, and compare against the simulator's
// ground truth.
const handlerProgram = `
var thresholdHi int = 550;
var thresholdLo int = 200;

func handler(v int) int {
	var r int;
	r = 0;
	if (v > thresholdHi) {
		r = 2;
	} else {
		if (v > thresholdLo) {
			r = 1 + v % 97;
		}
	}
	while (v > 600) {
		v = v - 250;
		r = r + 1;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 1500; i = i + 1) {
		acc = acc + handler(sense());
	}
	debug(acc);
}`

func runHandler(t *testing.T, tickDiv int, seed int64) (*compile.Output, *mote.Machine) {
	t.Helper()
	out, err := compile.Build(handlerProgram, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	cfgM := mote.DefaultConfig()
	cfgM.TickDiv = tickDiv
	cfgM.Sensor = workload.NewGaussian(stats.NewRNG(seed), 400, 180)
	m := mote.New(out.Code, cfgM)
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	return out, m
}

func estimateHandler(t *testing.T, out *compile.Output, m *mote.Machine, tickDiv int) (*Model, markov.EdgeProbs) {
	t.Helper()
	ivs, err := trace.Extract(m.Trace())
	if err != nil {
		t.Fatal(err)
	}
	pm := out.Meta.ProcByName["handler"]
	ticks := trace.ExclusiveByProc(ivs)[pm.Index]
	if len(ticks) != 1500 {
		t.Fatalf("handler samples = %d, want 1500", len(ticks))
	}
	samples := trace.DurationsCycles(ticks, tickDiv)

	model, err := NewModelOpts(out, "handler", mote.StaticNotTaken{}, markov.EnumerateOptions{MaxVisits: 8, MaxPaths: 20000}, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// handler is a leaf: quantization error is strictly below one tick, so
	// the kernel half width is the tick itself.
	est, st, err := EstimateEM(model, samples, EMConfig{KernelHalfWidth: float64(tickDiv)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations == 0 {
		t.Fatal("EM did not run")
	}
	return model, est
}

func TestEndToEndExactTimer(t *testing.T) {
	out, m := runHandler(t, 1, 23)
	model, est := estimateHandler(t, out, m, 1)
	truth := profile.OracleProbs(out.Meta.ProcByName["handler"], model.Proc, m.BranchStats())
	if mae := branchMAE(t, model, est, truth); mae > 0.03 {
		t.Fatalf("end-to-end MAE (tick=1) = %v, want < 0.03\nest=%v\ntruth=%v",
			mae, model.ProbVector(est), model.ProbVector(truth))
	}
}

func TestEndToEndQuantizedTimer(t *testing.T) {
	out, m := runHandler(t, 8, 29)
	model, est := estimateHandler(t, out, m, 8)
	truth := profile.OracleProbs(out.Meta.ProcByName["handler"], model.Proc, m.BranchStats())
	if mae := branchMAE(t, model, est, truth); mae > 0.08 {
		t.Fatalf("end-to-end MAE (tick=8) = %v, want < 0.08\nest=%v\ntruth=%v",
			mae, model.ProbVector(est), model.ProbVector(truth))
	}
}

func TestMeasuredDurationsMatchPathTimes(t *testing.T) {
	// With TickDiv=1 every measured exclusive duration must be exactly one
	// of the enumerated path times — the strongest possible check that the
	// timing model, trace extraction, and path enumeration agree.
	out, m := runHandler(t, 1, 31)
	ivs, err := trace.Extract(m.Trace())
	if err != nil {
		t.Fatal(err)
	}
	pm := out.Meta.ProcByName["handler"]
	model, err := NewModelOpts(out, "handler", mote.StaticNotTaken{}, markov.EnumerateOptions{MaxVisits: 8, MaxPaths: 20000}, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	times := make(map[float64]bool, len(model.PathTimes))
	for _, tau := range model.PathTimes {
		times[tau] = true
	}
	for _, iv := range ivs {
		if iv.ProcIndex != pm.Index {
			continue
		}
		if !times[float64(iv.ExclusiveTicks())] {
			t.Fatalf("measured duration %d not among %d path times", iv.ExclusiveTicks(), len(model.PathTimes))
		}
	}
}

// TestEndToEndHandlerWithCalls estimates a handler that calls a helper:
// the exclusive-time extraction must subtract the callee's (quantized)
// interval, and the call-site boundary accounting in the timing model must
// keep durations invertible. The child subtraction adds up to one extra
// tick of noise per call, so the kernel is widened accordingly.
func TestEndToEndHandlerWithCalls(t *testing.T) {
	src := `
func scale(v int) int {
	return v / 3 + 7;
}

func handler(v int) int {
	var r int;
	r = scale(v);
	if (v > 550) {
		r = r + scale(v - 200) * 2;
	}
	if (r > 120) {
		r = r - 120;
		r = r * 5 % 89;
		r = r + v / 6;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 1500; i = i + 1) {
		acc = acc + handler(sense());
	}
	debug(acc);
}`
	out, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		t.Fatal(err)
	}
	const tickDiv = 8
	cfgM := mote.DefaultConfig()
	cfgM.TickDiv = tickDiv
	cfgM.Sensor = workload.NewGaussian(stats.NewRNG(61), 450, 170)
	m := mote.New(out.Code, cfgM)
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	ivs, err := trace.Extract(m.Trace())
	if err != nil {
		t.Fatal(err)
	}
	pm := out.Meta.ProcByName["handler"]
	samples := trace.DurationsCycles(trace.ExclusiveByProc(ivs)[pm.Index], tickDiv)

	model, err := NewModelOpts(out, "handler", mote.StaticNotTaken{}, markov.EnumerateOptions{MaxVisits: 8, MaxPaths: 20000}, ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Up to two callee subtractions per invocation: widen the kernel.
	est, _, err := EstimateEM(model, samples, EMConfig{KernelHalfWidth: 3 * tickDiv})
	if err != nil {
		t.Fatal(err)
	}
	truth := profile.OracleProbs(pm, model.Proc, m.BranchStats())
	// Both branches' arms are wider than the kernel, which the structural
	// diagnostic must confirm — and then the estimates must be accurate.
	amb := model.BranchAmbiguity(2)
	for b, a := range amb {
		if a > 0.5 {
			t.Fatalf("branch %v unexpectedly ambiguous (%v); test program mis-sized", b, a)
		}
	}
	if mae := branchMAE(t, model, est, truth); mae > 0.1 {
		t.Fatalf("caller-handler MAE = %v, want < 0.1\nest=%v\ntruth=%v",
			mae, model.ProbVector(est), model.ProbVector(truth))
	}
	// Coverage must also hold with the widened kernel.
	if cov := model.Coverage(samples, 3*tickDiv); cov < 0.95 {
		t.Fatalf("coverage = %v with calls, want >= 0.95", cov)
	}
}
