package tomography

import (
	"errors"
	"fmt"
	"math"

	"codetomo/internal/markov"
)

// ErrNoSamples is returned when an estimator is invoked with nothing to
// estimate from: an empty sample set (or, for Incremental.Observe, an
// empty accumulated stream).
var ErrNoSamples = errors.New("tomography: no samples")

// smoothingAlpha is the additive smoothing applied in the M-step of the EM
// and histogram estimators so no branch probability collapses to exactly
// zero (0.5 pseudo-counts).
const smoothingAlpha = 0.5

// EMConfig tunes the expectation-maximization estimator.
type EMConfig struct {
	// MaxIter bounds EM iterations (default 200).
	MaxIter int
	// Tol stops iteration when no probability moves more than this
	// (default 1e-6).
	Tol float64
	// KernelHalfWidth is the observation kernel's half width in cycles,
	// covering timer quantization and callee-subtraction noise. Values
	// <= 0 select the model's timer tick.
	KernelHalfWidth float64
}

// withDefaults fills unset fields for estimation on m.
func (c EMConfig) withDefaults(m *Model) EMConfig {
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.KernelHalfWidth <= 0 {
		c.KernelHalfWidth = m.Tick()
	}
	return c
}

// EMStats reports how the estimation went.
type EMStats struct {
	Iterations int
	Converged  bool
	// LogLikelihood is the final (smoothed-kernel) data log-likelihood.
	LogLikelihood float64
	// Unmatched counts observations that fell outside every path's kernel
	// and were soft-assigned to the nearest path.
	Unmatched int
}

// EstimateEM recovers branch probabilities from end-to-end duration samples
// (in cycles) by EM over the path mixture:
//
//	E-step: γ(i,j) ∝ π_j(θ)·K(t_i − τ_j)
//	M-step: p(e) ∝ Σ_{i,j} γ(i,j)·m_j(e)   (normalized per branch block)
//
// where j ranges over the model's arc-count classes, π_j is the class's
// path probability under the current probabilities times its
// multiplicity, τ_j its deterministic duration, m_j(e) its traversal count
// of edge e, and K a box kernel absorbing timer quantization.
//
// The hot loop runs on the model's dense arcs and edge-indexed vectors;
// its results are bit-identical to the map-keyed reference the tests keep,
// EstimateEMReference. Samples must be finite: NaN or ±Inf durations are
// rejected with an error rather than silently skewing the histogram.
func EstimateEM(m *Model, samples []float64, cfg EMConfig) (markov.EdgeProbs, EMStats, error) {
	var st EMStats
	if err := validateSamples(samples); err != nil {
		return nil, st, err
	}
	if len(m.Unknowns) == 0 {
		return m.InitialProbs(), st, nil
	}
	if len(samples) == 0 {
		return nil, st, ErrNoSamples
	}
	// Deduplicate observations into (value, count) — durations are
	// quantized so collapsing repeats makes EM cost independent of the
	// sample count.
	return estimateEMDense(m, CountSamples(samples), nil, cfg)
}

// validateSamples rejects non-finite durations at the estimation API
// boundary: NaN keys collapse unpredictably in histograms and ±Inf
// observations pin the nearest-path fallback to an arbitrary extreme.
func validateSamples(samples []float64) error {
	for i, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("tomography: sample %d is not finite (%v)", i, s)
		}
	}
	return nil
}
