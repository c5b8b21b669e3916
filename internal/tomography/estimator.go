package tomography

import "codetomo/internal/markov"

// Estimator is the common interface over the three Code Tomography
// estimation strategies, letting the harness sweep them uniformly.
type Estimator interface {
	// Name identifies the estimator in reports.
	Name() string
	// Estimate recovers branch probabilities from end-to-end duration
	// samples in cycles.
	Estimate(m *Model, samples []float64) (markov.EdgeProbs, error)
}

// EM is the path-mixture expectation-maximization estimator (primary).
type EM struct {
	Config EMConfig
}

// Name implements Estimator.
func (EM) Name() string { return "em" }

// Estimate implements Estimator.
func (e EM) Estimate(m *Model, samples []float64) (markov.EdgeProbs, error) {
	probs, _, err := EstimateEM(m, samples, e.Config)
	return probs, err
}

// Moments is the analytic mean/variance matching estimator.
type Moments struct{}

// Name implements Estimator.
func (Moments) Name() string { return "moments" }

// Estimate implements Estimator.
func (Moments) Estimate(m *Model, samples []float64) (markov.EdgeProbs, error) {
	return EstimateMoments(m, samples)
}

// Histogram is the binned nonnegative least-squares estimator.
type Histogram struct {
	Config HistogramConfig
}

// Name implements Estimator.
func (Histogram) Name() string { return "histogram" }

// Estimate implements Estimator.
func (e Histogram) Estimate(m *Model, samples []float64) (markov.EdgeProbs, error) {
	return EstimateHistogram(m, samples, e.Config)
}
