package tomography

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"codetomo/internal/ir"
	"codetomo/internal/markov"
)

func TestIncrementalConvergesOnStream(t *testing.T) {
	m := twoArmModel(t, 40)
	truth := markov.Uniform(m.Proc)
	truth[[2]ir.BlockID{0, 1}] = 0.7
	truth[[2]ir.BlockID{0, 2}] = 0.3
	samples := sampleDurations(t, m, truth, 4000, 1, 11)

	inc := NewIncremental(m, EM{Config: EMConfig{KernelHalfWidth: 0.5}})
	inc.tol = 5e-3
	const batch = 200
	var est markov.EdgeProbs
	for i := 0; i < len(samples); i += batch {
		var err error
		est, err = inc.Observe(CountSamples(samples[i : i+batch]))
		if err != nil {
			t.Fatal(err)
		}
	}
	if !inc.Converged() {
		t.Fatalf("stream did not converge after %d rounds", inc.Rounds())
	}
	// Once converged, later batches are absorbed without re-estimating.
	if inc.Rounds() >= len(samples)/batch {
		t.Fatalf("rounds = %d, expected early stop before %d", inc.Rounds(), len(samples)/batch)
	}
	if inc.Counts().N() != len(samples) {
		t.Fatalf("Counts().N() = %d, want %d", inc.Counts().N(), len(samples))
	}
	if inc.Iterations() <= 0 {
		t.Fatal("EM iteration count not tracked")
	}
	if got := est[[2]ir.BlockID{0, 1}]; math.Abs(got-0.7) > 0.05 {
		t.Fatalf("taken probability = %v, want ~0.7", got)
	}
}

func TestIncrementalStopsReestimatingAfterConvergence(t *testing.T) {
	m := twoArmModel(t, 40)
	truth := markov.Uniform(m.Proc)
	truth[[2]ir.BlockID{0, 1}] = 0.5
	truth[[2]ir.BlockID{0, 2}] = 0.5
	samples := sampleDurations(t, m, truth, 1000, 1, 3)

	inc := NewIncremental(m, EM{Config: EMConfig{KernelHalfWidth: 0.5}})
	inc.tol, inc.patience = 1e-2, 1
	for i := 0; i < len(samples); i += 100 {
		if _, err := inc.Observe(CountSamples(samples[i : i+100])); err != nil {
			t.Fatal(err)
		}
		if inc.Converged() {
			break
		}
	}
	if !inc.Converged() {
		t.Skip("stream did not converge on this seed")
	}
	rounds, seen := inc.Rounds(), inc.Counts().N()
	if _, err := inc.Observe(CountSamples(samples[:100])); err != nil {
		t.Fatal(err)
	}
	if inc.Rounds() != rounds {
		t.Fatalf("re-estimated after convergence: rounds %d -> %d", rounds, inc.Rounds())
	}
	if inc.Counts().N() != seen+100 {
		t.Fatalf("post-convergence batch not absorbed: %d samples, want %d", inc.Counts().N(), seen+100)
	}
}

func TestIncrementalEmptyStream(t *testing.T) {
	// Regression: an empty first batch used to return (nil, nil), which
	// callers read as a (vacuous) estimate. The contract is now a typed
	// sentinel the caller can errors.Is on and treat as "nothing yet".
	m := twoArmModel(t, 40)
	inc := NewIncremental(m, EM{})
	probs, err := inc.Observe(SampleCounts{})
	if !errors.Is(err, ErrNoSamples) {
		t.Fatalf("empty stream: err=%v, want ErrNoSamples", err)
	}
	if probs != nil {
		t.Fatalf("empty stream: probs=%v, want nil", probs)
	}
	if inc.Rounds() != 0 || inc.Converged() {
		t.Fatal("empty stream must not count as a round")
	}

	// The stream stays usable: a later non-empty batch estimates normally.
	truth := markov.Uniform(m.Proc)
	samples := sampleDurations(t, m, truth, 400, 1, 5)
	if _, err := inc.Observe(CountSamples(samples)); err != nil {
		t.Fatalf("batch after empty round: %v", err)
	}
	if inc.Rounds() != 1 || inc.Probs() == nil {
		t.Fatalf("rounds=%d probs=%v after recovery batch", inc.Rounds(), inc.Probs())
	}
}

func TestIncrementalRejectsNonFinite(t *testing.T) {
	m := twoArmModel(t, 40)
	inc := NewIncremental(m, EM{})
	if _, err := inc.Observe(SampleCounts{Values: []float64{100, math.NaN()}, Counts: []int{1, 1}}); err == nil {
		t.Fatal("NaN sample accepted")
	}
	if inc.Counts().N() != 0 {
		t.Fatalf("rejected batch was absorbed: %d samples", inc.Counts().N())
	}
	if _, err := inc.Observe(SampleCounts{Values: []float64{math.Inf(1)}, Counts: []int{1}}); err == nil {
		t.Fatal("+Inf sample accepted")
	}
}

func TestIncrementalWarmStartMatchesBatch(t *testing.T) {
	// Streaming with warm starts must land on the same estimate as the
	// one-shot batch solve over the same accumulated samples (within the
	// convergence tolerance), and the running histogram must agree with a
	// from-scratch dedup of everything seen.
	m := twoArmModel(t, 40)
	truth := markov.Uniform(m.Proc)
	truth[[2]ir.BlockID{0, 1}] = 0.8
	truth[[2]ir.BlockID{0, 2}] = 0.2
	samples := sampleDurations(t, m, truth, 3000, 1, 19)

	cfg := EMConfig{KernelHalfWidth: 0.5}
	inc := NewIncremental(m, EM{Config: cfg})
	inc.patience = 1 << 30 // never declare converged
	for i := 0; i < len(samples); i += 300 {
		if _, err := inc.Observe(CountSamples(samples[i : i+300])); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(inc.hist, CountSamples(samples)) {
		t.Fatal("running histogram diverged from from-scratch dedup")
	}
	batch, _, err := EstimateEM(m, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDelta(inc.Probs(), batch); d > 5e-3 {
		t.Fatalf("warm-started stream differs from batch solve by %v", d)
	}
}

func TestIncrementalWarmRoundCheaper(t *testing.T) {
	// The acceptance criterion behind the warm start: a round that merely
	// confirms a stable estimate should cost far fewer EM iterations than
	// the cold first round.
	// The wide kernel makes observation supports span both diamond arms,
	// so EM has to walk in over many iterations from the uniform start;
	// the warm round resumes next door to the optimum and needs strictly
	// fewer. (With well-separated paths EM one-steps and warm starting is
	// moot either way.)
	m := syntheticModel(t)
	truth := trueProbs(m, 0.7, 0.3)
	samples := sampleDurations(t, m, truth, 4000, 1, 23)
	cfg := EMConfig{KernelHalfWidth: 120, Tol: 1e-10, MaxIter: 500}
	inc := NewIncremental(m, EM{Config: cfg})
	inc.patience = 1 << 30
	if _, err := inc.Observe(CountSamples(samples[:3800])); err != nil {
		t.Fatal(err)
	}
	cold := inc.Iterations()
	if _, err := inc.Observe(CountSamples(samples[3800:])); err != nil {
		t.Fatal(err)
	}
	warm := inc.Iterations() - cold
	if warm >= cold {
		t.Fatalf("warm round took %d iterations vs cold %d", warm, cold)
	}
}

func TestIncrementalNonEMEstimator(t *testing.T) {
	m := twoArmModel(t, 40)
	truth := markov.Uniform(m.Proc)
	samples := sampleDurations(t, m, truth, 500, 1, 7)
	inc := NewIncremental(m, Moments{})
	if _, err := inc.Observe(CountSamples(samples)); err != nil {
		t.Fatal(err)
	}
	if inc.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", inc.Rounds())
	}
	if inc.Iterations() != 0 {
		t.Fatalf("moments estimator reported %d EM iterations", inc.Iterations())
	}
}

// TestIncrementalCoverageMatchesModel pins the stream's histogram
// coverage to Model.Coverage over the whole raw stream, bit for bit, after
// every batch and past convergence, under each kind of estimator.
func TestIncrementalCoverageMatchesModel(t *testing.T) {
	m := twoArmModel(t, 40)
	truth := markov.Uniform(m.Proc)
	samples := sampleDurations(t, m, truth, 2000, 1, 29)
	// Every seventh sample lands off the model, so coverage stays below 1.
	for i := 0; i < len(samples); i += 7 {
		samples[i] += 1000 + float64(i%5)
	}
	for _, est := range []Estimator{EM{}, Robust{}, Moments{}} {
		inc := NewIncremental(m, est)
		inc.tol, inc.patience = 0.05, 1
		past := 0 // batches that arrived past convergence
		for i := 0; i < len(samples); i += 250 {
			if inc.Converged() {
				past++
			}
			if _, err := inc.Observe(CountSamples(samples[i : i+250])); err != nil {
				t.Fatal(err)
			}
			seen := samples[:i+250]
			if inc.Counts().N() != len(seen) {
				t.Fatalf("%s: Counts().N() = %d, want %d", est.Name(), inc.Counts().N(), len(seen))
			}
			for _, hw := range []float64{0.5, 4} {
				if got, want := m.CoverageCounts(inc.Counts(), hw), m.Coverage(seen, hw); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s after %d samples: CoverageCounts(Counts(), %v) = %v, Coverage = %v", est.Name(), len(seen), hw, got, want)
				}
			}
		}
		if past == 0 {
			t.Fatalf("%s: no batch arrived past convergence", est.Name())
		}
	}
}

func TestMaxDelta(t *testing.T) {
	e1 := [2]ir.BlockID{0, 1}
	e2 := [2]ir.BlockID{0, 2}
	a := markov.EdgeProbs{e1: 0.7, e2: 0.3}
	b := markov.EdgeProbs{e1: 0.6, e2: 0.4}
	if d := MaxDelta(a, b); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("MaxDelta = %v, want 0.1", d)
	}
	// Missing edges count as zero on the other side, in both directions.
	if d := MaxDelta(a, markov.EdgeProbs{e1: 0.7}); math.Abs(d-0.3) > 1e-12 {
		t.Fatalf("MaxDelta missing-in-b = %v, want 0.3", d)
	}
	if d := MaxDelta(markov.EdgeProbs{e1: 0.7}, a); math.Abs(d-0.3) > 1e-12 {
		t.Fatalf("MaxDelta missing-in-a = %v, want 0.3", d)
	}
	if d := MaxDelta(nil, nil); d != 0 {
		t.Fatalf("MaxDelta(nil, nil) = %v", d)
	}
}
