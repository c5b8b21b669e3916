package tomography

import (
	"math"
	"sort"

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
// accumulated observations are kept as a running sorted (value, count)
// histogram that each batch is merged into (never re-deduplicated from
// scratch), and every EM round warm-starts from the previous round's
// probabilities, so a round that merely confirms the estimate costs a
// couple of iterations instead of a full cold solve. EM reads only the
// histogram, so under EM the raw stream is not kept at all.
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

	n       int       // samples absorbed
	samples []float64 // raw stream up to convergence, for every estimator but EM
	obs     []float64 // running dedup histogram, ascending (EM, Coverage)
	counts  []int
	// Buffers merge reuses: the sorted batch, and the histogram the last
	// merge replaced.
	sorted     []float64
	spareObs   []float64
	spareCount []int

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
	inc.n += len(batch)
	inc.merge(batch)
	if inc.converged {
		return inc.probs, nil
	}
	if inc.n == 0 {
		return nil, ErrNoSamples
	}
	if _, em := inc.Est.(EM); !em {
		inc.samples = append(inc.samples, batch...)
	}
	inc.rounds++

	var (
		probs markov.EdgeProbs
		err   error
	)
	// Go through the stats-reporting entry points directly when the
	// estimator supports them, so per-round iteration counts, trims, and
	// confidence surface in fleet observability — and so EM rounds can
	// warm-start from the previous estimate and reuse the histogram.
	switch est := inc.Est.(type) {
	case EM:
		cfg := est.Config
		cfg.Init = inc.probs // nil on round one: uniform start
		var st EMStats
		probs, st, err = estimateEMDense(inc.Model, inc.obs, inc.counts, cfg)
		inc.iterations += st.Iterations
	case Robust:
		// The robust trim depends on the full sample set (winsorization is
		// quantile-based), so it runs over the raw stream; its inner EM
		// still warm-starts.
		cfg := est.Config
		cfg.EM.Init = inc.probs
		var st RobustStats
		probs, st, err = EstimateRobust(inc.Model, inc.samples, cfg)
		inc.iterations += st.EM.Iterations
		inc.trimmed = st.Trimmed
		inc.confident = st.Confident
	default:
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

// merge folds one batch into the running (value, count) histogram: the
// batch is sorted and merged run by run into the sorted histogram, so the
// per-round cost is O(batch·log batch + distinct values) instead of
// re-deduplicating the whole accumulated stream. The sorted batch and the
// new histogram go into buffers kept from earlier rounds, so a steady
// stream allocates nothing here.
func (inc *Incremental) merge(batch []float64) {
	if len(batch) == 0 {
		return
	}
	b := append(inc.sorted[:0], batch...)
	sort.Float64s(b)
	ov, oc := inc.obs, inc.counts
	mv, mc := inc.spareObs[:0], inc.spareCount[:0]
	i := 0
	for j := 0; j < len(b); {
		v, k := b[j], j+1
		for k < len(b) && b[k] == v {
			k++
		}
		for i < len(ov) && ov[i] < v {
			mv, mc = append(mv, ov[i]), append(mc, oc[i])
			i++
		}
		c := k - j
		if i < len(ov) && ov[i] == v {
			v, c = ov[i], c+oc[i] // the histogram's value stays, as −0 == +0
			i++
		}
		mv, mc = append(mv, v), append(mc, c)
		j = k
	}
	mv, mc = append(mv, ov[i:]...), append(mc, oc[i:]...)
	inc.sorted = b
	inc.obs, inc.counts, inc.spareObs, inc.spareCount = mv, mc, ov, oc
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

// SampleCount returns how many samples have been absorbed.
func (inc *Incremental) SampleCount() int { return inc.n }

// Coverage is Model.Coverage over every sample absorbed so far, taken
// from the histogram: a distinct value within halfWidth of a path counts
// once per sample of it.
func (inc *Incremental) Coverage(halfWidth float64) float64 {
	if inc.n == 0 {
		return 0
	}
	times := inc.Model.sortedTimes()
	hit := 0
	for i, v := range inc.obs {
		if times.Within(v, halfWidth) {
			hit += inc.counts[i]
		}
	}
	return float64(hit) / float64(inc.n)
}

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
