package tomography

import (
	"fmt"
	"math"

	"codetomo/internal/linalg"
	"codetomo/internal/markov"
)

const (
	// histMaxIter bounds the NNLS projected-gradient iterations.
	histMaxIter = 3000
	// histMaxPaths bounds the design matrix's column count; models whose
	// path set is larger are rejected. The EM estimator handles such
	// procedures; the histogram method's dense system does not scale to
	// them.
	histMaxPaths = 4096
	// histMaxBins bounds the design matrix's row count.
	histMaxBins = 2048
)

// estimateHistogram recovers branch probabilities by binning a histogram
// of finite duration samples and solving a nonnegative least-squares
// system for the path weights: each path contributes its kernel mass to
// the bins its duration overlaps, so  A·w ≈ ĥ  with w ≥ 0, where ĥ is the
// empirical bin frequency vector. Edge probabilities follow from the
// weighted edge traversal counts. The kernel half width and the bin width
// are the model's timer tick.
func estimateHistogram(m *Model, samples SampleCounts) (markov.EdgeProbs, error) {
	kw := m.Tick()
	if len(m.Unknowns) == 0 {
		return m.InitialProbs(), nil
	}
	if len(samples.Values) == 0 {
		return nil, ErrNoSamples
	}
	if len(m.Paths) > histMaxPaths {
		return nil, fmt.Errorf("tomography: histogram estimator limited to %d paths, model has %d", histMaxPaths, len(m.Paths))
	}

	lo, hi := samples.Values[0], samples.Values[len(samples.Values)-1]
	for _, tau := range m.PathTimes {
		lo, hi = math.Min(lo, tau), math.Max(hi, tau)
	}
	lo -= kw
	hi += kw + 1e-9
	nBins := int(math.Ceil((hi - lo) / math.Max(kw, 1)))
	if nBins < 1 {
		nBins = 1
	}
	// The projected-gradient NNLS solver tolerates underdetermined
	// systems, so the bin count only needs to bound memory, not rank.
	if nBins > histMaxBins {
		nBins = histMaxBins
	}
	binW := (hi - lo) / float64(nBins)

	// Empirical bin frequencies.
	h := make([]float64, nBins)
	binOf := func(x float64) int {
		i := int((x - lo) / binW)
		if i < 0 {
			return 0
		}
		if i >= nBins {
			return nBins - 1
		}
		return i
	}
	for i, v := range samples.Values {
		h[binOf(v)] += float64(samples.Counts[i])
	}
	n := float64(samples.N())
	for i := range h {
		h[i] /= n
	}

	// Design matrix: kernel mass of each path per bin (box kernel of half
	// width kw centered at the path duration).
	a := linalg.NewMatrix(nBins, len(m.Paths))
	for j, tau := range m.PathTimes {
		klo, khi := tau-kw, tau+kw
		width := khi - klo
		if width <= 0 {
			a.Add(binOf(tau), j, 1)
			continue
		}
		for b := binOf(klo); b <= binOf(khi); b++ {
			blo := lo + float64(b)*binW
			bhi := blo + binW
			overlap := math.Min(bhi, khi) - math.Max(blo, klo)
			if overlap > 0 {
				a.Add(b, j, overlap/width)
			}
		}
	}

	w, err := linalg.NNLS(a, h, histMaxIter)
	if err != nil {
		return nil, err
	}

	// Convert path weights to expected edge traversals.
	return m.probsFromEdgeWeights(m.edgeWeights(w), smoothingAlpha), nil
}
