package codetomo

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"codetomo/internal/apps"
	"codetomo/internal/mote"
	"codetomo/internal/tomography"
)

func sourceFor(t *testing.T, name string, iters int) string {
	t.Helper()
	a, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	src, err := a.Source(iters)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestPipelineEndToEnd(t *testing.T) {
	src := sourceFor(t, "sense", 2000)
	res, err := Run(src, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) == 0 {
		t.Fatal("no procedures estimated")
	}
	var handler *ProcEstimate
	for i := range res.Estimates {
		if res.Estimates[i].Proc == "sample" {
			handler = &res.Estimates[i]
		}
	}
	if handler == nil {
		t.Fatal("handler estimate missing")
	}
	if handler.Fallback {
		t.Fatal("handler fell back to static heuristics")
	}
	if handler.SampleCount != 2000 {
		t.Fatalf("handler samples = %d", handler.SampleCount)
	}
	if handler.MAE > 0.1 {
		t.Fatalf("handler MAE = %v, want < 0.1", handler.MAE)
	}
	for _, be := range handler.Branches {
		if be.Prob < 0 || be.Prob > 1 {
			t.Fatalf("estimate out of range: %+v", be)
		}
	}
	// The end metric: optimized layout must not be worse.
	if res.After.Mispredicts > res.Before.Mispredicts {
		t.Fatalf("mispredicts grew: %d -> %d", res.Before.Mispredicts, res.After.Mispredicts)
	}
	if res.Speedup() < 1.0 {
		t.Fatalf("speedup = %v < 1", res.Speedup())
	}
	if res.Before.EnergyUJ <= 0 {
		t.Fatal("energy not computed")
	}
}

func TestPipelineAllApps(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			src := sourceFor(t, a.Name, 800)
			res, err := Run(src, Config{Seed: 11, Workload: a.Workload})
			if err != nil {
				t.Fatal(err)
			}
			// Output preserved is checked inside Run (ErrOutputChanged);
			// here assert the pipeline never makes things materially
			// worse.
			if res.After.MispredictRate() > res.Before.MispredictRate()*1.05+0.01 {
				t.Fatalf("misprediction rate regressed: %.4f -> %.4f",
					res.Before.MispredictRate(), res.After.MispredictRate())
			}
		})
	}
}

func TestPipelineConfigErrors(t *testing.T) {
	src := sourceFor(t, "sense", 100)
	if _, err := Run(src, Config{Workload: "unknown"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run("not a program", Config{}); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	src := sourceFor(t, "sense", 100)
	cases := []struct {
		cfg  Config
		want string // substring of the error
	}{
		{Config{TickDiv: -1}, "TickDiv"},
		{Config{MinSamples: -5}, "MinSamples"},
		{Config{MaxVisits: -1}, "MaxVisits"},
		{Config{MinCoverage: -0.5}, "MinCoverage"},
		{Config{MinCoverage: 1.01}, "MinCoverage"},
	}
	for i, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not name %q", i, err, tc.want)
		}
		// Run rejects the same configs up front.
		if _, err := Run(src, tc.cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config", i)
		}
	}
	// Zero values still select defaults.
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestPipelineCustomSensorAndEstimator(t *testing.T) {
	src := sourceFor(t, "quantize", 600)
	res, err := Run(src, Config{
		Sensor:    func() mote.SampleSource { return constSensor(700) },
		Estimator: tomography.Histogram{Config: tomography.HistogramConfig{KernelHalfWidth: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Constant input: every *executed* branch is deterministic, so its
	// oracle probability is 0 or 1 (branches in dead arms never execute
	// and keep the 0.5 prior).
	degenerate := 0
	for _, pe := range res.Estimates {
		if pe.Proc != "binof" {
			continue
		}
		for _, be := range pe.Branches {
			if be.Oracle == 0 || be.Oracle == 1 {
				degenerate++
			}
		}
	}
	if degenerate == 0 {
		t.Fatal("constant input produced no degenerate branches")
	}
}

// TestRunHonorsRobustVerdict pins Run to the robust estimator's verdict,
// as RunFleet already is: with a trim width no measured duration can meet,
// the fit is reported trimmed and low-confidence instead of being placed
// on.
func TestRunHonorsRobustVerdict(t *testing.T) {
	src := sourceFor(t, "sense", 600)
	cfg := Config{Estimator: tomography.Robust{Config: tomography.RobustConfig{OutlierWidth: 1e-9}}}
	res, err := Run(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := RunFleet(src, FleetConfig{Config: cfg, Motes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, ests := range map[string][]ProcEstimate{"Run": res.Estimates, "RunFleet": fleet.Estimates} {
		found := false
		for _, pe := range ests {
			if pe.Proc != "sample" {
				continue
			}
			found = true
			if pe.TrimmedSamples == 0 || !pe.LowConfidence || pe.Fallback {
				t.Errorf("%s: sample trimmed=%d lowConfidence=%v fallback=%v, want trimmed > 0, low confidence, no fallback",
					name, pe.TrimmedSamples, pe.LowConfidence, pe.Fallback)
			}
		}
		if !found {
			t.Errorf("%s: no estimate for sample", name)
		}
	}
}

type constSensor uint16

func (c constSensor) Next() uint16 { return uint16(c) }

// rampSensor is a stateful stream: each read returns the next step of a
// sawtooth over the sensor range, and the stream counts its reads.
type rampSensor struct{ reads int }

func (r *rampSensor) Next() uint16 {
	r.reads++
	return uint16(r.reads * 37 % 1024)
}

// TestRunStatefulSensorReplays checks that a stateful caller-supplied
// sensor is replayed from its start on every mote: the original and the
// optimized run see the profile run's inputs, so the output check passes
// and all three streams are read equally far.
func TestRunStatefulSensorReplays(t *testing.T) {
	for _, name := range []string{"sense", "eventdetect", "aggregate", "fir", "duty", "quantize"} {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var streams []*rampSensor
			res, err := Run(sourceFor(t, name, 400), Config{Sensor: func() mote.SampleSource {
				mu.Lock()
				defer mu.Unlock()
				s := &rampSensor{}
				streams = append(streams, s)
				return s
			}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) == 0 {
				t.Fatal("no output")
			}
			if len(streams) != 3 {
				t.Fatalf("sensor factory called %d times, want 3 (profile, original, optimized)", len(streams))
			}
			for _, s := range streams[1:] {
				if s.reads != streams[0].reads {
					t.Fatalf("runs read different inputs: %d, %d and %d sensor reads", streams[0].reads, streams[1].reads, streams[2].reads)
				}
			}
		})
	}
}

func TestPipelineBTFN(t *testing.T) {
	src := sourceFor(t, "eventdetect", 800)
	res, err := Run(src, Config{Seed: 3, Workload: "bursty", Predictor: mote.BTFN{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.After.MispredictRate() > res.Before.MispredictRate()*1.05+0.01 {
		t.Fatalf("BTFN: rate regressed %.4f -> %.4f",
			res.Before.MispredictRate(), res.After.MispredictRate())
	}
}

func TestErrOutputChangedIsSentinel(t *testing.T) {
	if !errors.Is(ErrOutputChanged, ErrOutputChanged) {
		t.Fatal("sentinel broken")
	}
}

func TestRunStatsHelpers(t *testing.T) {
	s := RunStats{CondBranches: 100, Mispredicts: 25}
	if s.MispredictRate() != 0.25 {
		t.Fatalf("rate = %v", s.MispredictRate())
	}
	if (RunStats{}).MispredictRate() != 0 {
		t.Fatal("zero-branch rate should be 0")
	}
	r := Result{Before: RunStats{Cycles: 200, CondBranches: 10, Mispredicts: 4},
		After: RunStats{Cycles: 100, CondBranches: 10, Mispredicts: 1}}
	if r.Speedup() != 2 {
		t.Fatalf("speedup = %v", r.Speedup())
	}
	if red := r.MispredictReduction(); red < 0.7499 || red > 0.7501 {
		t.Fatalf("reduction = %v", red)
	}
}

func TestPipelineWithBackendOptimizations(t *testing.T) {
	src := sourceFor(t, "sense", 1500)
	res, err := Run(src, Config{Seed: 7, FuseCompares: true, RotateLoops: true, Predictor: mote.BTFN{}})
	if err != nil {
		t.Fatal(err)
	}
	// Optimized backend + BTFN + tomography placement must still deliver
	// on the headline metric without breaking semantics (Run verifies
	// output equality internally).
	if res.After.MispredictRate() > res.Before.MispredictRate()+0.01 {
		t.Fatalf("rate regressed: %.4f -> %.4f",
			res.Before.MispredictRate(), res.After.MispredictRate())
	}
}

func TestPipelineReportsAmbiguity(t *testing.T) {
	// quantize's balanced if-tree is structurally ambiguous at tick 8;
	// the result must carry that diagnostic.
	src := sourceFor(t, "quantize", 1000)
	res, err := Run(src, Config{Seed: 3, Workload: "diurnal"})
	if err != nil {
		t.Fatal(err)
	}
	high := 0
	for _, pe := range res.Estimates {
		if pe.Proc != "binof" {
			continue
		}
		if len(pe.Branches) == 0 {
			t.Fatal("binof has no branch estimates")
		}
		for _, b := range pe.Branches {
			if b.Ambiguity < 0 || b.Ambiguity > 1 {
				t.Fatalf("ambiguity out of range: %+v", b)
			}
			if b.Ambiguity > 0.9 {
				high++
			}
		}
	}
	if high == 0 {
		t.Fatal("quantize at tick 8 should report highly ambiguous branches")
	}

	// At tick 1 the same program is identifiable: ambiguity must drop on
	// most branches.
	res1, err := Run(src, Config{Seed: 3, Workload: "diurnal", TickDiv: 1})
	if err != nil {
		t.Fatal(err)
	}
	low := 0
	for _, pe := range res1.Estimates {
		if pe.Proc != "binof" {
			continue
		}
		for _, b := range pe.Branches {
			if b.Ambiguity < 0.5 {
				low++
			}
		}
	}
	if low == 0 {
		t.Fatal("tick-1 ambiguity did not drop")
	}
}

// staticResolveSource has one branch the value-range analysis proves
// one-way (sense() never reaches 2000) and one genuine branch.
const staticResolveSource = `
func handler() int {
	var v int;
	var r int;
	v = sense();
	r = 0;
	if (v < 2000) {
		r = r + v / 3;
	} else {
		r = 99;
	}
	if (v < 500) {
		r = r + v / 5 + v % 11 + 1;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 800; i = i + 1) {
		acc = acc + handler();
	}
	debug(acc);
}`

// TestPipelineStaticResolve checks the opt-in static-analysis path: a
// branch the ADC rail proves one-way is pinned instead of estimated, and
// the accepted fit sits inside the static envelope.
func TestPipelineStaticResolve(t *testing.T) {
	src := staticResolveSource
	res, err := Run(src, Config{Seed: 9, StaticResolve: true})
	if err != nil {
		t.Fatal(err)
	}
	var handler *ProcEstimate
	for i := range res.Estimates {
		if res.Estimates[i].Proc == "handler" {
			handler = &res.Estimates[i]
		}
	}
	if handler == nil {
		t.Fatal("handler estimate missing")
	}
	if handler.Fallback {
		t.Fatal("handler fell back to static heuristics")
	}
	if handler.ResolvedBranches != 1 {
		t.Fatalf("resolved branches = %d, want 1", handler.ResolvedBranches)
	}
	if handler.EnvelopeViolation {
		t.Fatal("healthy fit flagged as an envelope violation")
	}
	// The pinned branch is excluded from the estimated set: only the
	// genuine branch's edges remain.
	for _, be := range handler.Branches {
		if be.Prob < 0 || be.Prob > 1 {
			t.Fatalf("estimate out of range: %+v", be)
		}
	}
	if handler.MAE > 0.1 {
		t.Fatalf("handler MAE = %v, want < 0.1", handler.MAE)
	}

	// Same pipeline without the flag: nothing resolved, nothing flagged.
	res2, err := Run(src, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range res2.Estimates {
		if pe.ResolvedBranches != 0 || pe.EnvelopeViolation {
			t.Fatalf("static fields set without StaticResolve: %+v", pe)
		}
	}
}

// TestRunScheduleIndependent checks that Run's result does not depend on
// how its stages are scheduled: one core runs the procedures in order and
// the baseline interleaved with profiling, four run them side by side.
func TestRunScheduleIndependent(t *testing.T) {
	crc, _ := apps.ByName("crc")
	aggregate, _ := apps.ByName("aggregate")
	for i, a := range []apps.App{crc, apps.CallChain, aggregate} {
		t.Run(a.Name, func(t *testing.T) {
			src, err := a.Source(PipelineAppsInvocations)
			if err != nil {
				t.Fatal(err)
			}
			cfg := PipelineAppsConfig(a.Workload, int64(i+1))
			run := func(procs int) *Result {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				res, err := Run(src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if one, four := run(1), run(4); !reflect.DeepEqual(one, four) {
				t.Fatalf("Run differs between GOMAXPROCS 1 and 4:\n1: %+v\n4: %+v", one, four)
			}
		})
	}
}

// TestRunFailureLeavesNoGoroutine fails Run in its profile run, while the
// baseline runs in the background, and checks that every goroutine Run
// started has exited.
func TestRunFailureLeavesNoGoroutine(t *testing.T) {
	const src = `
func handler() int {
	return 1000 / sense();
}

func main() {
	var i int;
	for (i = 0; i < 50; i = i + 1) {
		debug(handler());
	}
}`
	start := runtime.NumGoroutine()
	_, err := Run(src, Config{Sensor: func() mote.SampleSource { return constSensor(0) }})
	if !errors.Is(err, mote.ErrDivByZero) {
		t.Fatalf("Run error = %v, want division by zero", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Run failed, %d before it", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}
