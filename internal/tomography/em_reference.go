package tomography

import (
	"math"

	"codetomo/internal/ir"
	"codetomo/internal/markov"
)

// EstimateEMReference is the original map-based EM kernel, retained
// verbatim as the numerical oracle: the dense kernel behind EstimateEM is
// pinned bit-for-bit against it by the equivalence and property tests, and
// BenchmarkEstimateEMReferencePaths measures the dense kernel's speedup
// over it. It scans every path per observation and allocates fresh maps
// per iteration — do not use it outside tests and benchmarks.
//
// Unlike EstimateEM it does not validate samples; callers own finiteness.
func EstimateEMReference(m *Model, samples []float64, cfg EMConfig) (markov.EdgeProbs, EMStats, error) {
	cfg = cfg.withDefaults()
	var st EMStats
	if len(m.Unknowns) == 0 {
		return m.InitialProbs(), st, nil
	}
	if len(samples) == 0 {
		return nil, st, ErrNoSamples
	}

	obs, counts := dedup(samples)

	probs := m.InitialProbs()
	if cfg.Init != nil {
		for e, v := range cfg.Init {
			if _, ok := probs[e]; ok {
				probs[e] = v
			}
		}
	}
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
		for j, p := range m.Paths {
			prior[j] = p.Prob(probs)
		}

		// E-step + M-step accumulation.
		edgeW := make(map[[2]ir.BlockID]float64) // edge → expected traversals
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
				// responsibility over the support.
				gamma := float64(counts[i]) / float64(len(s.paths))
				for _, j := range s.paths {
					accumulate(edgeW, m.Paths[j], gamma)
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
				total += edgeW[e] + smoothingAlpha
			}
			if total <= 0 {
				continue
			}
			for _, e := range u.Edges {
				p := (edgeW[e] + smoothingAlpha) / total
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

func accumulate(edgeW map[[2]ir.BlockID]float64, p *markov.Path, gamma float64) {
	// Iterate the ordered arc list, not the map: floating-point sums must
	// be reproducible run to run.
	for _, a := range p.Arcs {
		edgeW[a.Edge] += gamma * float64(a.Count)
	}
}
