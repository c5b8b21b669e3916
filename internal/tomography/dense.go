package tomography

import (
	"math"
	"sort"

	"codetomo/internal/ir"
	"codetomo/internal/markov"
)

// sortedTimes returns the binary-search index over the model's path
// durations, building it on first use.
func (m *Model) sortedTimes() *markov.SortedTimes {
	m.timesOnce.Do(func() { m.times = markov.NewSortedTimes(m.PathTimes) })
	return m.times
}

// pathProbs returns every class's prior mass under probs (priors).
func (m *Model) pathProbs(probs markov.EdgeProbs) []float64 {
	q := m.index.Dense(probs)
	out := make([]float64, len(m.Paths))
	m.priors(q, q, out)
	return out
}

// priors fills logq with the logs of q (logq may be q) and out[j] with
// class j's path probability times its multiplicity.
func (m *Model) priors(q, logq, out []float64) {
	markov.LogProbs(q, logq)
	markov.PathProbs(m.Paths, logq, out)
	for j, k := range m.Mult {
		out[j] *= float64(k)
	}
}

// edgeWeights sums weight[j]·count over the arcs of every path j whose
// weight is not <= 0, per edge, in path then arc order (so each edge's sum
// is reproducible), and returns the sums keyed by edge.
func (m *Model) edgeWeights(weight []float64) map[[2]ir.BlockID]float64 {
	w := make([]float64, m.index.Len())
	for j, g := range weight {
		if g > 0 {
			m.Paths[j].Accumulate(g, w)
		}
	}
	return m.index.Probs(w)
}

// estimateEMDense is the EM hot path over a histogram of finite samples,
// starting from init where it has a value and from the uniform prior
// elsewhere. Warm starting changes the trajectory (typically slashing the
// iteration count on streaming re-estimation) but not the stopping rule:
// EM still iterates until no probability moves more than Tol. From the
// uniform start it performs the exact floating-point operation sequence
// of EstimateEMReference — same observation order, same per-support class
// order (ascending class index), same arc order — so the two
// implementations agree bit for bit; only the data layout differs (dense
// indexed arrays and reusable scratch buffers instead of maps and
// per-iteration clones).
func estimateEMDense(m *Model, h SampleCounts, init markov.EdgeProbs, cfg EMConfig) (markov.EdgeProbs, EMStats, error) {
	cfg = cfg.withDefaults(m)
	obs, counts := h.Values, h.Counts
	var st EMStats
	if len(m.Unknowns) == 0 {
		return m.InitialProbs(), st, nil
	}
	if len(obs) == 0 {
		return nil, st, ErrNoSamples
	}
	ix := m.index
	nE, nP := ix.Len(), len(m.Paths)

	// Starting point: uniform, overlaid with the warm-start values.
	probs := ix.Dense(m.InitialProbs())
	for e, v := range init {
		if i, ok := ix.Index(e); ok {
			probs[i] = v
		}
	}

	supStart, supPath, unmatched := buildSupports(m.sortedTimes(), obs, counts, cfg.KernelHalfWidth)
	st.Unmatched = unmatched

	// Per-iteration scratch, allocated once and reused: the shared
	// log-probability table, the path priors, and the expected
	// edge-traversal weights.
	logq := make([]float64, nE)
	prior := make([]float64, nP)
	edgeW := make([]float64, nE)

	for iter := 0; iter < cfg.MaxIter; iter++ {
		st.Iterations = iter + 1
		// Class priors under current θ: one log per edge, one sum per class.
		m.priors(probs, logq, prior)

		// E-step + M-step accumulation.
		for k := range edgeW {
			edgeW[k] = 0
		}
		ll := 0.0
		for i := range obs {
			sup := supPath[supStart[i]:supStart[i+1]]
			den := 0.0
			for _, j := range sup {
				den += prior[j]
			}
			cnt := float64(counts[i])
			if den <= 0 {
				// All supported paths currently have zero prior (can
				// happen before smoothing kicks in); fall back to uniform
				// responsibility over the paths the support stands for.
				n := 0
				for _, j := range sup {
					n += m.Mult[j]
				}
				for _, j := range sup {
					m.Paths[j].Accumulate(cnt*float64(m.Mult[j])/float64(n), edgeW)
				}
				continue
			}
			ll += cnt * math.Log(den)
			for _, j := range sup {
				gamma := prior[j] / den * cnt
				m.Paths[j].Accumulate(gamma, edgeW)
			}
		}
		st.LogLikelihood = ll

		// M-step: renormalize per branch block with smoothing, updating the
		// dense vector in place (each edge's old value is read before it is
		// written, matching the reference's clone-then-update).
		maxDelta := 0.0
		for _, edges := range m.unknown {
			total := 0.0
			for _, ei := range edges {
				total += edgeW[ei] + smoothingAlpha
			}
			if total <= 0 {
				continue
			}
			for _, ei := range edges {
				p := (edgeW[ei] + smoothingAlpha) / total
				if d := math.Abs(p - probs[ei]); d > maxDelta {
					maxDelta = d
				}
				probs[ei] = p
			}
		}
		if maxDelta < cfg.Tol {
			st.Converged = true
			break
		}
	}
	return ix.Probs(probs), st, nil
}

// buildSupports constructs each observation's kernel support — the paths
// within hw of the observed duration, ascending by path index — by binary
// search over the sorted path times: O(n·log paths + support size) instead
// of the reference's O(n·paths) scan. Observations matching no path are
// soft-assigned to the nearest path (lowest index on distance ties, like
// the reference scan) and counted as unmatched.
func buildSupports(times *markov.SortedTimes, obs []float64, counts []int, hw float64) (supStart []int32, supPath []int32, unmatched int) {
	supStart = make([]int32, len(obs)+1)
	for i, t := range obs {
		lo, hi := times.Window(t, hw)
		if lo == hi {
			supPath = append(supPath, int32(times.Nearest(t)))
			unmatched += counts[i]
		} else {
			base := len(supPath)
			for k := lo; k < hi; k++ {
				supPath = append(supPath, times.Idx[k])
			}
			// The window is sorted by (time, index); the E-step accumulates
			// in ascending path-index order for reproducibility.
			s := supPath[base:]
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		}
		supStart[i+1] = int32(len(supPath))
	}
	return supStart, supPath, unmatched
}
