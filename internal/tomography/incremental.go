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
// batch is merged into (never re-deduplicated from scratch), and every
// round warm-starts from the previous round's probabilities, so an EM
// round that merely confirms the estimate costs a couple of iterations
// instead of a full cold solve.
type Incremental struct {
	model *Model
	est   Estimator
	// tol is the convergence threshold on the largest per-edge probability
	// change between successive rounds.
	tol float64
	// patience is how many consecutive rounds must stay under tol before
	// the stream is declared converged.
	patience int

	hist       SampleCounts // every sample absorbed
	fit        Fit          // the latest round's
	rounds     int
	calm       int
	converged  bool
	iterations int
}

// NewIncremental builds a streaming estimator for one procedure that
// declares convergence once two consecutive rounds move no probability by
// 1e-3 or more.
func NewIncremental(m *Model, est Estimator) *Incremental {
	return &Incremental{model: m, est: est, tol: 1e-3, patience: 2}
}

// Observe folds one batch of duration samples into the stream and
// re-estimates over everything accumulated so far. Once the stream has
// converged further batches are absorbed without re-estimating, so callers
// may keep feeding data cheaply. The batch is not retained.
//
// Contract: samples must be finite (NaN/±Inf are rejected with an error
// and the batch is not absorbed), and calling Observe while nothing has
// been accumulated yet — an empty first batch — returns ErrNoSamples with
// no estimate; the stream remains usable and a later non-empty batch
// estimates normally. Callers draining unevenly-filled uplink rounds
// should treat ErrNoSamples as "nothing to do yet", not a failure.
func (inc *Incremental) Observe(batch SampleCounts) (markov.EdgeProbs, error) {
	if err := validateSamples(batch.Values); err != nil {
		return nil, err
	}
	inc.hist.Merge(batch)
	if inc.converged {
		return inc.fit.Probs, nil
	}
	if len(inc.hist.Values) == 0 {
		return nil, ErrNoSamples
	}
	inc.rounds++
	fit, err := inc.est.Fit(inc.model, inc.hist, inc.fit.Probs)
	if err != nil {
		return nil, err
	}
	inc.iterations += fit.Iterations
	if inc.fit.Probs != nil {
		if MaxDelta(inc.fit.Probs, fit.Probs) < inc.tol {
			inc.calm++
			inc.converged = inc.calm >= inc.patience
		} else {
			inc.calm = 0
		}
	}
	inc.fit = fit
	return fit.Probs, nil
}

// Probs returns the latest estimate (nil before the first Observe).
func (inc *Incremental) Probs() markov.EdgeProbs { return inc.fit.Probs }

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
func (inc *Incremental) Trimmed() int { return inc.fit.Trimmed }

// Confident reports whether the latest estimate should be acted on:
// always true for estimators without a confidence notion, and the robust
// estimator's verdict otherwise (false before the first estimate).
func (inc *Incremental) Confident() bool { return inc.fit.Confident }

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
