package tomography

import (
	"math"
	"reflect"
	"testing"
)

// contaminate appends n absurd durations — the signature of
// reboot-truncated invocations or corrupt-but-decodable ticks — to a clean
// sample set.
func contaminate(samples []float64, n int, at float64) []float64 {
	out := append([]float64(nil), samples...)
	for i := 0; i < n; i++ {
		out = append(out, at+float64(i))
	}
	return out
}

func TestRobustMatchesEMOnCleanSamples(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.3, 0.7)
	samples := sampleDurations(t, m, truth, 3000, 1, 7)
	cfg := RobustConfig{EM: EMConfig{KernelHalfWidth: 0.5}}
	probs, st, err := estimateRobust(m, CountSamples(samples), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A handful of clean samples may exceed the model's loop-enumeration
	// bound and be (correctly) treated as unexplainable; anything more
	// means the trim window is wrong.
	if st.Trimmed > 5 {
		t.Fatalf("clean samples trimmed: %+v", st)
	}
	if !st.Confident {
		t.Fatalf("clean estimate not confident: %+v", st)
	}
	if mae := branchMAE(t, m, probs, truth); mae > 0.02 {
		t.Fatalf("robust MAE on clean samples = %v, want < 0.02", mae)
	}
}

// The headline property: contamination plain EM cannot shrug off is
// trimmed by the robust pass, which stays near the truth.
func TestRobustResistsContamination(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.3, 0.7)
	clean := sampleDurations(t, m, truth, 2000, 1, 7)
	// 15% contamination far past the longest path.
	dirty := contaminate(clean, 300, 50_000)

	plain, _, err := EstimateEM(m, dirty, EMConfig{KernelHalfWidth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	robust, st, err := estimateRobust(m, CountSamples(dirty), nil, RobustConfig{EM: EMConfig{KernelHalfWidth: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Trimmed < 300 || st.Trimmed > 305 {
		t.Fatalf("Trimmed = %d, want the 300 injected outliers (+ at most a few beyond-enumeration cleans)", st.Trimmed)
	}
	if !st.Confident {
		t.Fatalf("15%% trim should stay under the 25%% confidence gate: %+v", st)
	}
	plainMAE := branchMAE(t, m, plain, truth)
	robustMAE := branchMAE(t, m, robust, truth)
	if robustMAE > 0.03 {
		t.Fatalf("robust MAE under contamination = %v, want < 0.03", robustMAE)
	}
	if plainMAE < 2*robustMAE {
		t.Fatalf("contamination did not separate the estimators: plain %v, robust %v", plainMAE, robustMAE)
	}
}

func TestRobustConfidenceGate(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.4, 0.6)
	clean := sampleDurations(t, m, truth, 500, 1, 13)
	// 50% contamination: past MaxTrimFraction, so the estimate must be
	// flagged rather than trusted.
	dirty := contaminate(clean, 500, 80_000)
	_, st, err := estimateRobust(m, CountSamples(dirty), nil, RobustConfig{EM: EMConfig{KernelHalfWidth: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Confident {
		t.Fatalf("50%% trim reported confident: %+v", st)
	}
	if st.Trimmed != 500 {
		t.Fatalf("Trimmed = %d, want 500", st.Trimmed)
	}
}

// When every sample is implausible the estimator returns the uniform prior
// unconfidently — a fault-ridden uplink is an operating condition, not a
// caller bug.
func TestRobustAllTrimmed(t *testing.T) {
	m := syntheticModel(t)
	samples := []float64{1e6, 2e6, 3e6}
	probs, st, err := estimateRobust(m, CountSamples(samples), nil, RobustConfig{EM: EMConfig{KernelHalfWidth: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Confident || st.Trimmed != 3 || st.Kept != 0 {
		t.Fatalf("all-trimmed stats: %+v", st)
	}
	if !reflect.DeepEqual(probs, m.InitialProbs()) {
		t.Fatal("all-trimmed estimate is not the uniform prior")
	}
}

func TestRobustNoSamples(t *testing.T) {
	m := syntheticModel(t)
	if _, _, err := estimateRobust(m, CountSamples(nil), nil, RobustConfig{}); err == nil {
		t.Fatal("robust estimator accepted empty sample set")
	}
}

func TestRobustDeterministic(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.35, 0.65)
	dirty := contaminate(sampleDurations(t, m, truth, 1000, 8, 19), 100, 40_000)
	cfg := RobustConfig{EM: EMConfig{KernelHalfWidth: 8}}
	first, st1, err := estimateRobust(m, CountSamples(dirty), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, st2, err := estimateRobust(m, CountSamples(dirty), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st1 != st2 || !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs", i)
		}
	}
}

func TestWinsorize(t *testing.T) {
	in := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	out, clamped := winsorize(CountSamples(in), 0.1)
	if clamped != 2 {
		t.Fatalf("clamped = %d, want 2", clamped)
	}
	// The extremes are pulled to the 10%/90% quantiles; the interior is
	// untouched.
	if want := CountSamples([]float64{8, 1, 2, 3, 4, 5, 6, 7, 8, 1}); !reflect.DeepEqual(out, want) {
		t.Fatalf("winsorized = %v, want %v", out, want)
	}
	// Tiny or disabled inputs pass through untouched.
	short := CountSamples([]float64{1, 2})
	if got, n := winsorize(short, 0.1); n != 0 || !reflect.DeepEqual(got, short) {
		t.Fatalf("short input winsorized: %v, %d", got, n)
	}
}

func TestRobustEstimatorInterface(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.3, 0.6)
	samples := sampleDurations(t, m, truth, 1000, 8, 23)
	var est Estimator = Robust{Config: RobustConfig{EM: EMConfig{KernelHalfWidth: 8}}}
	if est.Name() != "robust-em" {
		t.Fatalf("Name = %q", est.Name())
	}
	fit, err := est.Fit(m, CountSamples(samples), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range m.Unknowns {
		sum := 0.0
		for _, e := range u.Edges {
			sum += fit.Probs[e]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("branch %v probabilities sum to %v", u.Block, sum)
		}
	}
}
