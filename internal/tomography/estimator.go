package tomography

import "codetomo/internal/markov"

// Estimator is the common interface over the Code Tomography estimation
// strategies, letting the harness sweep them uniformly. Every strategy is
// a function of the sample multiset, so it reads the samples' histogram.
type Estimator interface {
	// Name identifies the estimator in reports.
	Name() string
	// Fit recovers branch probabilities from a histogram of finite
	// end-to-end durations in cycles. EM and Robust start from init where
	// it has a value (nil: the uniform prior); Moments and Histogram
	// ignore it.
	Fit(m *Model, h SampleCounts, init markov.EdgeProbs) (Fit, error)
}

// Fit is one estimation's result.
type Fit struct {
	Probs markov.EdgeProbs
	// Iterations counts EM iterations (zero for non-EM estimators).
	Iterations int
	// Trimmed counts the samples the robust estimator discarded as
	// outliers (zero for the others).
	Trimmed int
	// Confident is false only when the robust estimator distrusts its
	// own fit.
	Confident bool
}

// EM is the path-mixture expectation-maximization estimator (primary).
type EM struct {
	Config EMConfig
}

// Name implements Estimator.
func (EM) Name() string { return "em" }

// Fit implements Estimator.
func (e EM) Fit(m *Model, h SampleCounts, init markov.EdgeProbs) (Fit, error) {
	probs, st, err := estimateEMDense(m, h, init, e.Config)
	return Fit{Probs: probs, Iterations: st.Iterations, Confident: true}, err
}

// Moments is the analytic mean/variance matching estimator.
type Moments struct{}

// Name implements Estimator.
func (Moments) Name() string { return "moments" }

// Fit implements Estimator.
func (Moments) Fit(m *Model, h SampleCounts, _ markov.EdgeProbs) (Fit, error) {
	probs, err := estimateMoments(m, h)
	return Fit{Probs: probs, Confident: true}, err
}

// Histogram is the binned nonnegative least-squares estimator.
type Histogram struct{}

// Name implements Estimator.
func (Histogram) Name() string { return "histogram" }

// Fit implements Estimator.
func (Histogram) Fit(m *Model, h SampleCounts, _ markov.EdgeProbs) (Fit, error) {
	probs, err := estimateHistogram(m, h)
	return Fit{Probs: probs, Confident: true}, err
}
