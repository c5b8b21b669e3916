package tomography

import (
	"math"

	"codetomo/internal/markov"
)

// EstimateEMReference is the original map-based EM kernel, kept in the
// tests as the numerical oracle: the dense kernel behind EstimateEM is
// pinned bit-for-bit against it by the equivalence and property tests, and
// BenchmarkEstimateEMReferencePaths measures the dense kernel's speedup
// over it. It scans every class per observation and allocates fresh maps
// per iteration, keyed by dense edge with each edge identified through the
// model's EdgeIndex.Index. A class's prior is its path probability times
// its multiplicity.
//
// Unlike EstimateEM it does not validate samples; callers own finiteness.
func EstimateEMReference(m *Model, samples []float64, cfg EMConfig) (markov.EdgeProbs, EMStats, error) {
	cfg = cfg.withDefaults(m)
	var st EMStats
	if len(m.Unknowns) == 0 {
		return m.InitialProbs(), st, nil
	}
	if len(samples) == 0 {
		return nil, st, ErrNoSamples
	}

	h := CountSamples(samples)
	obs, counts := h.Values, h.Counts

	probs := m.InitialProbs()
	nPaths := len(m.Paths)

	// Precompute kernel support per observation.
	type support struct {
		paths []int
		vals  []float64 // kernel value (box: 1)
	}
	supports := make([]support, len(obs))
	for i, t := range obs {
		var s support
		for j, tau := range m.PathTimes {
			if math.Abs(t-tau) <= cfg.KernelHalfWidth {
				s.paths = append(s.paths, j)
				s.vals = append(s.vals, 1)
			}
		}
		if len(s.paths) == 0 {
			// No path within the kernel: soft-assign to the nearest path
			// so the observation still informs the estimate.
			best, bd := -1, math.Inf(1)
			for j, tau := range m.PathTimes {
				if d := math.Abs(t - tau); d < bd {
					best, bd = j, d
				}
			}
			s.paths = []int{best}
			s.vals = []float64{1}
			st.Unmatched += counts[i]
		}
		supports[i] = s
	}

	prior := make([]float64, nPaths)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		st.Iterations = iter + 1
		// Path priors under current θ.
		q := denseKeyed(m, probs)
		for j, p := range m.Paths {
			prior[j] = pathProb(p, q) * float64(m.Mult[j])
		}

		// E-step + M-step accumulation.
		edgeW := make(map[int32]float64) // dense edge → expected traversals
		ll := 0.0
		for i := range obs {
			s := supports[i]
			den := 0.0
			for k, j := range s.paths {
				den += prior[j] * s.vals[k]
			}
			if den <= 0 {
				// All supported paths currently have zero prior (can
				// happen before smoothing kicks in); fall back to uniform
				// responsibility over the paths the support stands for.
				n := 0
				for _, j := range s.paths {
					n += m.Mult[j]
				}
				for _, j := range s.paths {
					accumulate(edgeW, m.Paths[j], float64(counts[i])*float64(m.Mult[j])/float64(n))
				}
				continue
			}
			ll += float64(counts[i]) * math.Log(den)
			for k, j := range s.paths {
				gamma := prior[j] * s.vals[k] / den * float64(counts[i])
				accumulate(edgeW, m.Paths[j], gamma)
			}
		}
		st.LogLikelihood = ll

		// M-step: renormalize per branch block with smoothing.
		next := probs.Clone()
		maxDelta := 0.0
		for _, u := range m.Unknowns {
			total := 0.0
			for _, e := range u.Edges {
				i, _ := m.index.Index(e)
				total += edgeW[i] + smoothingAlpha
			}
			if total <= 0 {
				continue
			}
			for _, e := range u.Edges {
				i, _ := m.index.Index(e)
				p := (edgeW[i] + smoothingAlpha) / total
				if d := math.Abs(p - next[e]); d > maxDelta {
					maxDelta = d
				}
				next[e] = p
			}
		}
		probs = next
		if maxDelta < cfg.Tol {
			st.Converged = true
			break
		}
	}
	return probs, st, nil
}

func accumulate(edgeW map[int32]float64, p markov.Path, gamma float64) {
	// Iterate the ordered arc list, not the map: floating-point sums must
	// be reproducible run to run.
	for _, a := range p {
		edgeW[a.Edge] += gamma * float64(a.Count)
	}
}

// denseKeyed keys probs by the dense edge index of m's paths, each edge
// identified through EdgeIndex.Index.
func denseKeyed(m *Model, probs markov.EdgeProbs) map[int32]float64 {
	q := make(map[int32]float64, len(probs))
	for e, v := range probs {
		if i, ok := m.index.Index(e); ok {
			q[i] = v
		}
	}
	return q
}

// pathProb is the map-based product of a path's probability under q
// (denseKeyed): one log per arc in arc order, and 0 as soon as an arc's
// edge has no positive probability.
func pathProb(p markov.Path, q map[int32]float64) float64 {
	logp := 0.0
	for _, a := range p {
		qa := q[a.Edge]
		if qa <= 0 {
			return 0
		}
		logp += float64(a.Count) * math.Log(qa)
	}
	return math.Exp(logp)
}
