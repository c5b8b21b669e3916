package tomography

import (
	"fmt"
	"math"

	"codetomo/internal/linalg"
	"codetomo/internal/markov"
)

// HistogramConfig tunes the histogram least-squares estimator.
type HistogramConfig struct {
	// BinWidth in cycles; <= 0 derives it from the kernel half width.
	BinWidth float64
	// KernelHalfWidth is the quantization half width in cycles (default 8).
	KernelHalfWidth float64
	// Alpha is the M-step smoothing (default 0.5).
	Alpha float64
	// MaxIter bounds the NNLS projected-gradient iterations (default 3000).
	MaxIter int
	// MaxPaths bounds the design matrix's column count; models whose path
	// set is larger are rejected (default 4096). The EM estimator handles
	// such procedures; the histogram method's dense system does not scale
	// to them.
	MaxPaths int
	// MaxBins bounds the design matrix's row count (default 2048).
	MaxBins int
}

func (c HistogramConfig) withDefaults() HistogramConfig {
	if c.KernelHalfWidth <= 0 {
		c.KernelHalfWidth = 8
	}
	if c.BinWidth <= 0 {
		c.BinWidth = math.Max(c.KernelHalfWidth, 1)
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.5
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 3000
	}
	if c.MaxPaths <= 0 {
		c.MaxPaths = 4096
	}
	if c.MaxBins <= 0 {
		c.MaxBins = 2048
	}
	return c
}

// EstimateHistogram recovers branch probabilities by binning the duration
// samples and solving a nonnegative least-squares system for the path
// weights: each path contributes its kernel mass to the bins its duration
// overlaps, so  A·w ≈ ĥ  with w ≥ 0, where ĥ is the empirical bin
// frequency vector. Edge probabilities follow from the weighted edge
// traversal counts.
func EstimateHistogram(m *Model, samples []float64, cfg HistogramConfig) (markov.EdgeProbs, error) {
	cfg = cfg.withDefaults()
	if len(m.Unknowns) == 0 {
		return m.InitialProbs(), nil
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("tomography: no samples")
	}
	if len(m.Paths) > cfg.MaxPaths {
		return nil, fmt.Errorf("tomography: histogram estimator limited to %d paths, model has %d", cfg.MaxPaths, len(m.Paths))
	}

	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		lo, hi = math.Min(lo, s), math.Max(hi, s)
	}
	for _, tau := range m.PathTimes {
		lo, hi = math.Min(lo, tau), math.Max(hi, tau)
	}
	lo -= cfg.KernelHalfWidth
	hi += cfg.KernelHalfWidth + 1e-9
	nBins := int(math.Ceil((hi - lo) / cfg.BinWidth))
	if nBins < 1 {
		nBins = 1
	}
	// The projected-gradient NNLS solver tolerates underdetermined
	// systems, so the bin count only needs to bound memory, not rank.
	if nBins > cfg.MaxBins {
		nBins = cfg.MaxBins
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
	for _, s := range samples {
		h[binOf(s)]++
	}
	for i := range h {
		h[i] /= float64(len(samples))
	}

	// Design matrix: kernel mass of each path per bin (box kernel of half
	// width KernelHalfWidth centered at the path duration).
	a := linalg.NewMatrix(nBins, len(m.Paths))
	for j, tau := range m.PathTimes {
		klo, khi := tau-cfg.KernelHalfWidth, tau+cfg.KernelHalfWidth
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

	w, err := linalg.NNLS(a, h, cfg.MaxIter)
	if err != nil {
		return nil, err
	}

	// Convert path weights to expected edge traversals.
	return m.probsFromEdgeWeights(m.compiled().edgeWeights(w), cfg.Alpha), nil
}
