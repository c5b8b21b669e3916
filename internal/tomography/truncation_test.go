package tomography

import (
	"math"
	"testing"

	"codetomo/internal/ir"
	"codetomo/internal/markov"
)

// tiltedProbs applies the survival bias analytically: given the true
// probabilities and a hazard λ, it builds the completed-sample estimate
// q_i ∝ p_i·e^{−λT_i} (as edge probabilities) and the implied completion
// rate f = Σ p_i·e^{−λT_i}.
func tiltedProbs(m *Model, truth markov.EdgeProbs, lambda float64) (markov.EdgeProbs, float64) {
	w := make([]float64, m.index.Len())
	q := denseKeyed(m, truth)
	f := 0.0
	for i, p := range m.Paths {
		surv := pathProb(p, q) * float64(m.Mult[i]) * math.Exp(-lambda*m.PathTimes[i])
		f += surv
		p.Accumulate(surv, w)
	}
	return m.probsFromEdgeWeights(m.index.Probs(w), 0), f
}

// TestTruncationHazardRecovered: with a bias constructed from a known λ
// and lost/completed counts consistent with the implied completion rate,
// the bisection recovers λ.
func TestTruncationHazardRecovered(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.6, 0.4)
	for _, lambda := range []float64{1e-4, 1e-3, 5e-3} {
		q, f := tiltedProbs(m, truth, lambda)
		const total = 1_000_000
		completed := int(f * total)
		lost := total - completed
		got := m.TruncationHazard(q, lost, completed)
		if rel := math.Abs(got-lambda) / lambda; rel > 0.02 {
			t.Errorf("λ = %v: recovered %v (rel err %.3f)", lambda, got, rel)
		}
	}
}

// TestDebiasTruncationRecoversTruth: the debiased edge probabilities match
// the true ones that generated the biased estimate. The long-path arms
// (the loop back-edge 3→4, the expensive diamond arm 0→1) are exactly the
// ones survival bias suppresses, so this is the paper-level property: lost
// partials carry real information about where time is actually spent.
func TestDebiasTruncationRecoversTruth(t *testing.T) {
	m := syntheticModel(t)
	truth := trueProbs(m, 0.6, 0.4)
	const lambda = 2e-3
	q, f := tiltedProbs(m, truth, lambda)

	// The bias must be material for the test to mean anything.
	if math.Abs(q[[2]ir.BlockID{3, 4}]-truth[[2]ir.BlockID{3, 4}]) < 0.02 {
		t.Fatalf("constructed bias too small: q(3→4) = %v", q[[2]ir.BlockID{3, 4}])
	}

	const total = 1_000_000
	completed := int(f * total)
	deb := m.DebiasTruncation(q, total-completed, completed)
	for _, e := range [][2]ir.BlockID{{0, 1}, {0, 2}, {3, 4}, {3, 5}} {
		if diff := math.Abs(deb[e] - truth[e]); diff > 0.01 {
			t.Errorf("edge %v: debiased %v, truth %v", e, deb[e], truth[e])
		}
	}
}

// TestDebiasTruncationNoLoss: with nothing lost (or nothing completed)
// the estimate passes through untouched.
func TestDebiasTruncationNoLoss(t *testing.T) {
	m := syntheticModel(t)
	q := trueProbs(m, 0.3, 0.7)
	if got := m.DebiasTruncation(q, 0, 500); !markovEqual(got, q) {
		t.Error("lost=0 changed the estimate")
	}
	if got := m.DebiasTruncation(q, 12, 0); !markovEqual(got, q) {
		t.Error("completed=0 changed the estimate")
	}
	if got := m.TruncationHazard(q, 0, 500); got != 0 {
		t.Errorf("λ = %v with no loss", got)
	}
}

func markovEqual(a, b markov.EdgeProbs) bool {
	if len(a) != len(b) {
		return false
	}
	for e, p := range a {
		if b[e] != p {
			return false
		}
	}
	return true
}

// TestTruncationHazardMonotone: more loss at the same estimate implies a
// higher hazard.
func TestTruncationHazardMonotone(t *testing.T) {
	m := syntheticModel(t)
	q := trueProbs(m, 0.5, 0.5)
	prev := -1.0
	for _, lost := range []int{10, 100, 400, 900} {
		l := m.TruncationHazard(q, lost, 1000)
		if l <= prev {
			t.Fatalf("hazard not monotone in loss: %v after %v", l, prev)
		}
		prev = l
	}
}
