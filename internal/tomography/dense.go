package tomography

import (
	"fmt"
	"math"
	"sort"

	"codetomo/internal/ir"
	"codetomo/internal/markov"
)

// compiledModel caches the dense kernel inputs derived from a Model's path
// set: the CSR-compiled paths (edge-indexed arcs) and the dense edge groups
// of its unknowns. Built lazily, once, on first estimation and shared by
// every estimation round over the model — including concurrent fleet
// streams. The coverage gate needs only the sorted path times
// (Model.sortedTimes), so a procedure it rejects never compiles its paths.
type compiledModel struct {
	paths *markov.CompiledPaths
	// unknown holds, per Unknown, the dense edge indices of its outgoing
	// edges in successor order (the M-step normalization groups).
	unknown [][]int32
}

// sortedTimes returns the binary-search index over the model's path
// durations, building it on first use.
func (m *Model) sortedTimes() *markov.SortedTimes {
	m.timesOnce.Do(func() { m.times = markov.NewSortedTimes(m.PathTimes) })
	return m.times
}

// compiled returns the model's dense representation, building it on first
// use.
func (m *Model) compiled() *compiledModel {
	m.compileOnce.Do(func() {
		c := &compiledModel{paths: markov.Compile(m.Proc, m.Paths)}
		c.unknown = make([][]int32, len(m.Unknowns))
		for ui, u := range m.Unknowns {
			idx := make([]int32, len(u.Edges))
			for k, e := range u.Edges {
				i, ok := c.paths.Index.Index(e)
				if !ok {
					panic(fmt.Sprintf("tomography: unknown %v edge %v missing from CFG edge index", u.Block, e))
				}
				idx[k] = i
			}
			c.unknown[ui] = idx
		}
		m.comp = c
	})
	return m.comp
}

// pathProbs returns every path's probability under probs, bit-identical to
// markov.Path.Prob (see markov.CompiledPaths.PathProbs).
func (c *compiledModel) pathProbs(probs markov.EdgeProbs) []float64 {
	q := c.paths.Index.Dense(probs)
	logq := make([]float64, len(q))
	c.paths.LogProbs(q, logq)
	out := make([]float64, c.paths.NumPaths())
	c.paths.PathProbs(logq, out)
	return out
}

// edgeWeights sums weight[j]·count over the arcs of every path j whose
// weight is not <= 0, per edge, in path then arc order (the order the
// map-based accumulation used, so each edge's sum is bit-identical), and
// returns the sums keyed by edge.
func (c *compiledModel) edgeWeights(weight []float64) map[[2]ir.BlockID]float64 {
	w := make([]float64, c.paths.Index.Len())
	for j, g := range weight {
		if g <= 0 {
			continue
		}
		c.paths.AccumulateArcs(j, g, w)
	}
	return c.paths.Index.Probs(w)
}

// estimateEMDense is the EM hot path over pre-deduplicated observations:
// obs ascending with positive counts. It performs the exact floating-point
// operation sequence of EstimateEMReference — same observation order, same
// per-support path order (ascending path index), same arc order — so the
// two implementations agree bit for bit; only the data layout differs
// (dense indexed arrays and reusable scratch buffers instead of maps and
// per-iteration clones).
func estimateEMDense(m *Model, obs []float64, counts []int, cfg EMConfig) (markov.EdgeProbs, EMStats, error) {
	cfg = cfg.withDefaults()
	var st EMStats
	if len(m.Unknowns) == 0 {
		return m.InitialProbs(), st, nil
	}
	if len(obs) == 0 {
		return nil, st, ErrNoSamples
	}
	c := m.compiled()
	cp, ix := c.paths, c.paths.Index
	nE, nP := ix.Len(), cp.NumPaths()

	// Starting point: uniform, overlaid with warm-start values when given.
	probs := ix.Dense(m.InitialProbs())
	if cfg.Init != nil {
		for e, v := range cfg.Init {
			if i, ok := ix.Index(e); ok {
				probs[i] = v
			}
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
		// Path priors under current θ: one log per edge, then a fused
		// multiply-sum per path.
		cp.LogProbs(probs, logq)
		cp.PathProbs(logq, prior)

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
				// responsibility over the support.
				gamma := cnt / float64(len(sup))
				for _, j := range sup {
					cp.AccumulateArcs(int(j), gamma, edgeW)
				}
				continue
			}
			ll += cnt * math.Log(den)
			for _, j := range sup {
				gamma := prior[j] / den * cnt
				cp.AccumulateArcs(int(j), gamma, edgeW)
			}
		}
		st.LogLikelihood = ll

		// M-step: renormalize per branch block with smoothing, updating the
		// dense vector in place (each edge's old value is read before it is
		// written, matching the reference's clone-then-update).
		maxDelta := 0.0
		for _, edges := range c.unknown {
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
