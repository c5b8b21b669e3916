package tomography

import (
	"fmt"
	"math"

	"codetomo/internal/markov"
	"codetomo/internal/stats"
)

const (
	// momentSweeps is the number of coordinate-descent passes.
	momentSweeps = 30
	// momentVarWeight weights the variance residual relative to the mean
	// residual in the objective.
	momentVarWeight = 1
	// momentEps bounds probabilities away from {0,1}.
	momentEps = 1e-3
)

// EstimateMoments fits branch probabilities by matching the chain's
// analytic duration mean and variance (from the absorbing-chain fundamental
// matrix) to the sample moments, using coordinate descent with
// golden-section line search on each branch's probability.
//
// With only two moments the problem is underdetermined when the procedure
// has more than two effective unknowns — that is the method's documented
// limitation and exactly why the EM estimator is the primary one; the
// ablation experiment (T3) quantifies the gap.
func EstimateMoments(m *Model, samples []float64) (markov.EdgeProbs, error) {
	if len(m.Unknowns) == 0 {
		return m.InitialProbs(), nil
	}
	if len(samples) < 2 {
		return nil, fmt.Errorf("tomography: moment matching needs at least 2 samples, got %d", len(samples))
	}
	for _, u := range m.Unknowns {
		if len(u.Edges) != 2 {
			return nil, fmt.Errorf("tomography: moment matching supports binary branches only; block %v has %d successors", u.Block, len(u.Edges))
		}
	}

	var acc stats.Moments
	for _, s := range samples {
		acc.Push(s)
	}
	wantMean, wantVar := acc.Mean(), acc.Variance()

	probs := m.InitialProbs()
	objective := func() float64 {
		chain, err := markov.New(m.Proc, probs)
		if err != nil {
			return math.Inf(1)
		}
		mean, variance, err := chain.MeanVar(m.Costs)
		if err != nil {
			return math.Inf(1)
		}
		dm := (mean - wantMean) / math.Max(wantMean, 1)
		dv := (variance - wantVar) / math.Max(wantVar, 1)
		return dm*dm + momentVarWeight*dv*dv
	}

	for sweep := 0; sweep < momentSweeps; sweep++ {
		moved := 0.0
		for _, u := range m.Unknowns {
			e0, e1 := u.Edges[0], u.Edges[1]
			old := probs[e0]
			best := golden(func(p float64) float64 {
				probs[e0] = p
				probs[e1] = 1 - p
				return objective()
			}, momentEps, 1-momentEps, 40)
			probs[e0] = best
			probs[e1] = 1 - best
			moved += math.Abs(best - old)
		}
		if moved < 1e-7 {
			break
		}
	}
	return probs, nil
}

// golden minimizes f on [lo, hi] by golden-section search.
func golden(f func(float64) float64, lo, hi float64, iters int) float64 {
	const phi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < iters; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = f(x2)
		}
	}
	if f1 < f2 {
		return x1
	}
	return x2
}
