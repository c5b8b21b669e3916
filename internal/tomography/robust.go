package tomography

import (
	"sort"

	"codetomo/internal/markov"
)

// RobustConfig tunes the outlier-robust wrapper around EstimateEM. Plain
// EM soft-assigns every observation to its nearest enumerated path, so a
// handful of wildly implausible durations — reboot-truncated invocations
// that slipped past the epoch markers, or corrupted ticks that a receiver
// skipping the CRC let through — can drag whole branch probabilities with
// them. The robust variant trims what the path model cannot explain,
// winsorizes the tails of what remains, and reports how much it had to
// discard so callers can refuse to act on a gutted sample set.
type RobustConfig struct {
	// EM configures the inner estimator.
	EM EMConfig
	// OutlierWidth is the trim distance in cycles: samples farther than
	// this from every enumerated path duration are discarded before EM
	// runs (default 4× the EM kernel half-width).
	OutlierWidth float64
	// MaxTrimFraction is the confidence gate: when more than this
	// fraction of the samples was trimmed, the estimate is flagged
	// unconfident (default 0.25).
	MaxTrimFraction float64
}

// winsorFraction is the fraction of the kept samples clamped at each tail
// to the corresponding quantile. Trimming is the main defence; the winsor
// pass only bounds the leverage of the extreme in-model tail, and must stay
// below the probability of the rarest path worth estimating or it clamps
// real samples into the wrong mode.
const winsorFraction = 0.005

func (c RobustConfig) withDefaults() RobustConfig {
	c.EM = c.EM.withDefaults()
	if c.OutlierWidth <= 0 {
		c.OutlierWidth = 4 * c.EM.KernelHalfWidth
	}
	if c.MaxTrimFraction <= 0 {
		c.MaxTrimFraction = 0.25
	}
	return c
}

// RobustStats reports what the robust pass did to the sample set and how
// the inner EM went.
type RobustStats struct {
	// Trimmed counts samples discarded as model-implausible; Winsorized
	// counts kept samples clamped to a tail quantile; Kept is what EM ran
	// on.
	Trimmed, Winsorized, Kept int
	// EM is the inner estimator's report (zero when every sample was
	// trimmed and EM never ran).
	EM EMStats
	// Confident is the estimate's trust flag: the trim fraction stayed
	// under MaxTrimFraction, so the path model explains the bulk of what
	// the uplink delivered. Callers should fall back to baseline behaviour
	// when it is false. (The inner EM's own convergence bit is reported in
	// EM but deliberately not folded in here: stopping at the iteration
	// budget is a numerical detail, not evidence of contamination.)
	Confident bool
}

// EstimateRobust recovers branch probabilities like EstimateEM but
// degrades gracefully under contaminated samples: model-implausible
// observations are trimmed, the kept tails winsorized, and the result
// carries a confidence verdict instead of silently fitting garbage. When
// every sample is implausible it returns the uniform prior, unconfident —
// never an error, because a fault-ridden uplink is an operating condition,
// not a caller bug.
func EstimateRobust(m *Model, samples []float64, cfg RobustConfig) (markov.EdgeProbs, RobustStats, error) {
	cfg = cfg.withDefaults()
	var st RobustStats
	if err := validateSamples(samples); err != nil {
		return nil, st, err
	}
	if len(m.Unknowns) == 0 {
		st.Confident = true
		return m.InitialProbs(), st, nil
	}
	if len(samples) == 0 {
		return nil, st, ErrNoSamples
	}
	kept := trimOutliers(m, samples, cfg.OutlierWidth)
	st.Trimmed = len(samples) - len(kept)
	trimFrac := float64(st.Trimmed) / float64(len(samples))
	if len(kept) == 0 {
		// Every observation is implausible under the path model: estimate
		// nothing, return the prior, and say so.
		return m.InitialProbs(), st, nil
	}
	kept, st.Winsorized = winsorize(kept, winsorFraction)
	st.Kept = len(kept)
	probs, emSt, err := EstimateEM(m, kept, cfg.EM)
	if err != nil {
		return nil, st, err
	}
	st.EM = emSt
	st.Confident = trimFrac <= cfg.MaxTrimFraction
	return probs, st, nil
}

// trimOutliers keeps the samples within width cycles of at least one
// enumerated path duration, preserving input order. Everything else is
// unexplainable by the model at any branch probability and would only
// distort the EM responsibilities. The plausibility check binary-searches
// the sorted path times (the predicate is exactly |s − τ| <= width).
func trimOutliers(m *Model, samples []float64, width float64) []float64 {
	times := m.sortedTimes()
	kept := make([]float64, 0, len(samples))
	for _, s := range samples {
		if times.Within(s, width) {
			kept = append(kept, s)
		}
	}
	return kept
}

// winsorize clamps the samples below the frac quantile up to it and above
// the (1-frac) quantile down to it, preserving input order, and reports
// how many values were clamped. This bounds the leverage of in-model but
// extreme durations without discarding them.
func winsorize(samples []float64, frac float64) ([]float64, int) {
	if len(samples) < 3 || frac <= 0 {
		return samples, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	lo := sorted[int(frac*float64(len(sorted)))]
	hi := sorted[len(sorted)-1-int(frac*float64(len(sorted)))]
	out := make([]float64, len(samples))
	clamped := 0
	for i, s := range samples {
		switch {
		case s < lo:
			out[i] = lo
			clamped++
		case s > hi:
			out[i] = hi
			clamped++
		default:
			out[i] = s
		}
	}
	return out, clamped
}

// Robust is the Estimator adapter for EstimateRobust, usable anywhere the
// plain estimators are.
type Robust struct {
	Config RobustConfig
}

// Name implements Estimator.
func (Robust) Name() string { return "robust-em" }

// Estimate implements Estimator.
func (r Robust) Estimate(m *Model, samples []float64) (markov.EdgeProbs, error) {
	probs, _, err := EstimateRobust(m, samples, r.Config)
	return probs, err
}
