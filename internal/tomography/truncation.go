package tomography

import (
	"math"

	"codetomo/internal/markov"
)

// Estimation under power loss. An intermittently powered mote dies
// mid-procedure whenever its capacitor drains; the invocations that
// complete — the only ones that yield duration samples — are a biased
// draw of the path mixture, because a long path is more likely to be
// interrupted than a short one. Modeling power failures as a Poisson
// process with hazard λ per cycle, a path of duration T completes with
// probability e^{−λT}, so the completed-sample path distribution q
// relates to the true one p by q_i ∝ p_i·e^{−λT_i}. The base station
// observes two extra facts the biased estimate does not use: how many
// invocations were power-truncated (lost partials, counted from the
// epoch/power markers in the trace) and how many completed. Their ratio
// pins λ, and inverting the exponential tilt recovers p.

// truncationMaxExp caps exponents fed to math.Exp during the tilt so a
// pathological T_i/T_min ratio saturates instead of overflowing; the
// solved λ keeps the working exponents far below this.
const truncationMaxExp = 700

// TruncationHazard solves for the power-failure hazard λ (per cycle)
// implied by a completed-sample estimate probs and the observed lost /
// completed invocation counts. Writing f = completed/(completed+lost) for
// the completion rate and q_i for the path probabilities under probs, the
// tilt identity gives Σ_i q_i·e^{λT_i} = 1/f; the left side is strictly
// increasing in λ, so the root is found by bisection on
// [0, ln(1/f)/T_min]. Returns 0 when nothing was lost, when nothing
// completed (no samples to debias), or when probs puts no mass on any
// enumerated path.
func (m *Model) TruncationHazard(probs markov.EdgeProbs, lost, completed int) float64 {
	if lost <= 0 || completed <= 0 {
		return 0
	}
	q, tmin := m.pathDist(probs)
	if q == nil || tmin <= 0 {
		return 0
	}
	invF := float64(lost+completed) / float64(completed)
	z := func(lambda float64) float64 {
		sum := 0.0
		for i, qi := range q {
			if qi == 0 {
				continue
			}
			e := lambda * m.PathTimes[i]
			if e > truncationMaxExp {
				e = truncationMaxExp
			}
			sum += qi * math.Exp(e)
		}
		return sum
	}
	lo, hi := 0.0, math.Log(invF)/tmin
	// Z(0) = 1 ≤ 1/f and Z(hi) ≥ e^{hi·T_min} = 1/f, so the bracket holds.
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if z(mid) < invF {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// DebiasTruncation corrects a completed-sample estimate for power-loss
// survival bias: it solves for the hazard λ from the lost/completed
// counts (TruncationHazard), tilts the path distribution back by e^{+λT_i},
// and renormalizes into edge probabilities. With nothing lost (or nothing
// to solve from) the estimate is returned unchanged.
func (m *Model) DebiasTruncation(probs markov.EdgeProbs, lost, completed int) markov.EdgeProbs {
	lambda := m.TruncationHazard(probs, lost, completed)
	if lambda == 0 {
		return probs
	}
	q, _ := m.pathDist(probs)
	if q == nil {
		return probs
	}
	// p_i ∝ q_i·e^{λT_i}; shift exponents by the max to keep the weights
	// in range before normalizing through edge weights.
	maxT := 0.0
	for i, qi := range q {
		if qi > 0 && m.PathTimes[i] > maxT {
			maxT = m.PathTimes[i]
		}
	}
	p := make([]float64, len(q))
	for i, qi := range q {
		if qi == 0 {
			continue
		}
		e := lambda * (m.PathTimes[i] - maxT)
		if e < -truncationMaxExp {
			continue
		}
		p[i] = qi * math.Exp(e)
	}
	return m.probsFromEdgeWeights(m.compiled().edgeWeights(p), 1e-9)
}

// pathDist returns the normalized path distribution under probs and the
// minimum positive path time, or (nil, 0) when probs puts no mass on any
// enumerated path.
func (m *Model) pathDist(probs markov.EdgeProbs) ([]float64, float64) {
	q := m.compiled().pathProbs(probs)
	den := 0.0
	tmin := math.Inf(1)
	for i := range q {
		den += q[i]
		if q[i] > 0 && m.PathTimes[i] < tmin {
			tmin = m.PathTimes[i]
		}
	}
	if den <= 0 || math.IsInf(tmin, 1) {
		return nil, 0
	}
	for i := range q {
		q[i] /= den
	}
	return q, tmin
}
