package tomography

import "codetomo/internal/markov"

// RobustConfig tunes the outlier-robust wrapper around EM. Plain
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
}

// maxTrimFraction is the confidence gate: when more than this fraction of
// the samples was trimmed, the estimate is flagged unconfident.
const maxTrimFraction = 0.25

// winsorFraction is the fraction of the kept samples clamped at each tail
// to the corresponding quantile. Trimming is the main defence; the winsor
// pass only bounds the leverage of the extreme in-model tail, and must stay
// below the probability of the rarest path worth estimating or it clamps
// real samples into the wrong mode.
const winsorFraction = 0.005

func (c RobustConfig) withDefaults(m *Model) RobustConfig {
	c.EM = c.EM.withDefaults(m)
	if c.OutlierWidth <= 0 {
		c.OutlierWidth = 4 * c.EM.KernelHalfWidth
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
	// under maxTrimFraction, so the path model explains the bulk of what
	// the uplink delivered. Callers should fall back to baseline behaviour
	// when it is false. (The inner EM's own convergence bit is reported in
	// EM but deliberately not folded in here: stopping at the iteration
	// budget is a numerical detail, not evidence of contamination.)
	Confident bool
}

// estimateRobust recovers branch probabilities like EM, starting from
// init, but degrades gracefully under contaminated samples:
// model-implausible observations are trimmed, the kept tails winsorized,
// and the result carries a confidence verdict instead of silently fitting
// garbage. When every sample is implausible it returns the uniform prior,
// unconfident — never an error, because a fault-ridden uplink is an
// operating condition, not a caller bug. Each step is a function of the
// sample multiset, so it runs on a histogram of finite samples.
func estimateRobust(m *Model, h SampleCounts, init markov.EdgeProbs, cfg RobustConfig) (markov.EdgeProbs, RobustStats, error) {
	cfg = cfg.withDefaults(m)
	var st RobustStats
	if len(m.Unknowns) == 0 {
		st.Confident = true
		return m.InitialProbs(), st, nil
	}
	n := h.N()
	if n == 0 {
		return nil, st, ErrNoSamples
	}
	kept := trimOutliers(m, h, cfg.OutlierWidth)
	st.Kept = kept.N()
	st.Trimmed = n - st.Kept
	trimFrac := float64(st.Trimmed) / float64(n)
	if st.Kept == 0 {
		// Every observation is implausible under the path model: estimate
		// nothing, return the prior, and say so.
		return m.InitialProbs(), st, nil
	}
	kept, st.Winsorized = winsorize(kept, winsorFraction)
	probs, emSt, err := estimateEMDense(m, kept, init, cfg.EM)
	if err != nil {
		return nil, st, err
	}
	st.EM = emSt
	st.Confident = trimFrac <= maxTrimFraction
	return probs, st, nil
}

// trimOutliers keeps the samples within width cycles of at least one
// enumerated path duration. Everything else is unexplainable by the model
// at any branch probability and would only distort the EM
// responsibilities. The plausibility check binary-searches the sorted path
// times (the predicate is exactly |s − τ| <= width).
func trimOutliers(m *Model, h SampleCounts, width float64) SampleCounts {
	times := m.sortedTimes()
	var kept SampleCounts
	for i, v := range h.Values {
		if times.Within(v, width) {
			kept.Values = append(kept.Values, v)
			kept.Counts = append(kept.Counts, h.Counts[i])
		}
	}
	return kept
}

// winsorize clamps the samples below the frac quantile up to it and above
// the (1-frac) quantile down to it, and reports how many samples were
// clamped. This bounds the leverage of in-model but extreme durations
// without discarding them. Both quantiles are samples, so the clamped
// counts join existing values and the result stays ascending.
func winsorize(h SampleCounts, frac float64) (SampleCounts, int) {
	n := h.N()
	if n < 3 || frac <= 0 {
		return h, 0
	}
	k := int(frac * float64(n))
	lo, hi := h.valueAt(k), h.valueAt(n-1-k)
	var out SampleCounts
	clamped := 0
	for i, v := range h.Values {
		c := h.Counts[i]
		switch {
		case v < lo:
			v, clamped = lo, clamped+c
		case v > hi:
			v, clamped = hi, clamped+c
		}
		if last := len(out.Values) - 1; last >= 0 && out.Values[last] == v {
			out.Counts[last] += c
		} else {
			out.Values = append(out.Values, v)
			out.Counts = append(out.Counts, c)
		}
	}
	return out, clamped
}

// Robust is the outlier-robust EM estimator.
type Robust struct {
	Config RobustConfig
}

// Name implements Estimator.
func (Robust) Name() string { return "robust-em" }

// Fit implements Estimator.
func (r Robust) Fit(m *Model, h SampleCounts, init markov.EdgeProbs) (Fit, error) {
	probs, st, err := estimateRobust(m, h, init, r.Config)
	return Fit{Probs: probs, Iterations: st.EM.Iterations, Trimmed: st.Trimmed, Confident: st.Confident}, err
}
