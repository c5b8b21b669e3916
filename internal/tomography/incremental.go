package tomography

import (
	"math"

	"codetomo/internal/markov"
)

// Incremental adapts an Estimator to streaming use: duration samples
// arrive in batches (radio uplinks from a deployed fleet) and the estimate
// is refreshed after each batch. Convergence is declared once the estimate
// stops moving for several consecutive batches, letting a base station
// stop spending radio bandwidth on a procedure whose probabilities have
// stabilized.
//
// Two properties keep the per-round cost flat as the stream grows: the
// accumulated observations are kept as one running SampleCounts that each
// batch is merged into (never re-deduplicated from scratch), and every EM
// round warm-starts from the previous round's probabilities, so a round
// that merely confirms the estimate costs a couple of iterations instead
// of a full cold solve. EM, Robust and Histogram read only the histogram.
// Moments, whose sample moments depend on the order samples are pushed in,
// reads a raw stream kept only for it: batches given to Observe in their
// order, batches given to ObserveCounts in ascending order.
type Incremental struct {
	// Model is the path-enumeration model for one procedure.
	Model *Model
	// Est produces the estimate from the accumulated samples.
	Est Estimator
	// Tol is the convergence threshold on the largest per-edge probability
	// change between successive rounds (default 1e-3).
	Tol float64
	// Patience is how many consecutive rounds must stay under Tol before
	// the stream is declared converged (default 2).
	Patience int

	hist    SampleCounts // every sample absorbed
	samples []float64    // raw stream up to convergence, for Moments and unknown estimators

	probs      markov.EdgeProbs
	rounds     int
	calm       int
	converged  bool
	iterations int
	trimmed    int
	confident  bool
}

// NewIncremental builds a streaming estimator for one procedure. tol <= 0
// and patience <= 0 select the defaults.
func NewIncremental(m *Model, est Estimator, tol float64, patience int) *Incremental {
	if tol <= 0 {
		tol = 1e-3
	}
	if patience <= 0 {
		patience = 2
	}
	// Estimators without a confidence notion are trusted as before; only
	// the robust estimator can revoke confidence.
	return &Incremental{Model: m, Est: est, Tol: tol, Patience: patience, confident: true}
}

// Observe folds one batch of duration samples into the stream and
// re-estimates over everything accumulated so far. Once the stream has
// converged further batches are absorbed without re-estimating, so callers
// may keep feeding data cheaply.
//
// Contract: samples must be finite (NaN/±Inf are rejected with an error
// and the batch is not absorbed), and calling Observe while nothing has
// been accumulated yet — an empty first batch — returns ErrNoSamples with
// no estimate; the stream remains usable and a later non-empty batch
// estimates normally. Callers draining unevenly-filled uplink rounds
// should treat ErrNoSamples as "nothing to do yet", not a failure.
func (inc *Incremental) Observe(batch []float64) (markov.EdgeProbs, error) {
	if err := validateSamples(batch); err != nil {
		return nil, err
	}
	return inc.observe(CountSamples(batch), batch)
}

// ObserveCounts is Observe for a batch held as a histogram, under the same
// contract. The histogram is not retained.
func (inc *Incremental) ObserveCounts(batch SampleCounts) (markov.EdgeProbs, error) {
	if err := validateSamples(batch.Values); err != nil {
		return nil, err
	}
	return inc.observe(batch, nil)
}

// observe absorbs a validated batch, given as its histogram and, when the
// caller has it, in arrival order, and re-estimates.
func (inc *Incremental) observe(batch SampleCounts, raw []float64) (markov.EdgeProbs, error) {
	inc.hist.Merge(batch)
	if inc.converged {
		return inc.probs, nil
	}
	if len(inc.hist.Values) == 0 {
		return nil, ErrNoSamples
	}
	inc.rounds++

	var (
		probs markov.EdgeProbs
		err   error
	)
	// Go through the stats-reporting entry points directly when the
	// estimator supports them, so per-round iteration counts, trims, and
	// confidence surface in fleet observability — and so EM rounds can
	// warm-start from the previous estimate.
	switch est := inc.Est.(type) {
	case EM:
		cfg := est.Config
		cfg.Init = inc.probs // nil on round one: uniform start
		var st EMStats
		probs, st, err = estimateEMDense(inc.Model, inc.hist.Values, inc.hist.Counts, cfg)
		inc.iterations += st.Iterations
	case Robust:
		cfg := est.Config
		cfg.EM.Init = inc.probs
		var st RobustStats
		probs, st, err = estimateRobust(inc.Model, inc.hist, cfg)
		inc.iterations += st.EM.Iterations
		inc.trimmed = st.Trimmed
		inc.confident = st.Confident
	case Histogram:
		probs, err = estimateHistogram(inc.Model, inc.hist)
	default:
		if raw != nil {
			inc.samples = append(inc.samples, raw...)
		} else {
			inc.samples = batch.AppendSamples(inc.samples)
		}
		probs, err = inc.Est.Estimate(inc.Model, inc.samples)
	}
	if err != nil {
		return nil, err
	}

	if inc.probs != nil {
		if MaxDelta(inc.probs, probs) < inc.Tol {
			inc.calm++
			if inc.calm >= inc.Patience {
				inc.converged = true
			}
		} else {
			inc.calm = 0
		}
	}
	inc.probs = probs
	return probs, nil
}

// Probs returns the latest estimate (nil before the first Observe).
func (inc *Incremental) Probs() markov.EdgeProbs { return inc.probs }

// Converged reports whether the estimate has stopped moving.
func (inc *Incremental) Converged() bool { return inc.converged }

// Rounds returns how many re-estimations have run.
func (inc *Incremental) Rounds() int { return inc.rounds }

// Iterations returns the total EM iterations spent across all rounds
// (zero for non-EM estimators).
func (inc *Incremental) Iterations() int { return inc.iterations }

// Counts returns the histogram of every sample absorbed so far. It shares
// the stream's storage: read it before the next batch, and do not modify
// it.
func (inc *Incremental) Counts() SampleCounts { return inc.hist }

// Trimmed returns how many absorbed samples the robust estimator
// discarded as outliers in its latest estimation round (always 0 for
// non-robust estimators).
func (inc *Incremental) Trimmed() int { return inc.trimmed }

// Confident reports whether the latest estimate should be acted on:
// always true for estimators without a confidence notion, and the robust
// estimator's verdict otherwise.
func (inc *Incremental) Confident() bool { return inc.confident }

// MaxDelta returns the largest absolute per-edge difference between two
// probability maps, treating missing edges as zero.
func MaxDelta(a, b markov.EdgeProbs) float64 {
	max := 0.0
	for e, pa := range a {
		if d := math.Abs(pa - b[e]); d > max {
			max = d
		}
	}
	for e, pb := range b {
		if _, ok := a[e]; !ok && math.Abs(pb) > max {
			max = math.Abs(pb)
		}
	}
	return max
}
