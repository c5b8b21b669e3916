package tomography

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"codetomo/internal/markov"
	"codetomo/internal/stats"
)

// robustReference is the robust estimator as it ran on raw samples before
// it took histograms: trim and winsorize in input order, then EM over what is
// left. FuzzSampleCounts pins the histogram path to it.
func robustReference(m *Model, samples []float64, cfg RobustConfig) (markov.EdgeProbs, RobustStats, error) {
	cfg = cfg.withDefaults(m)
	var st RobustStats
	if len(m.Unknowns) == 0 {
		st.Confident = true
		return m.InitialProbs(), st, nil
	}
	if len(samples) == 0 {
		return nil, st, ErrNoSamples
	}
	times := m.sortedTimes()
	var kept []float64
	for _, s := range samples {
		if times.Within(s, cfg.OutlierWidth) {
			kept = append(kept, s)
		}
	}
	st.Trimmed = len(samples) - len(kept)
	if len(kept) == 0 {
		return m.InitialProbs(), st, nil
	}
	if len(kept) >= 3 {
		sorted := slices.Clone(kept)
		slices.Sort(sorted)
		k := int(winsorFraction * float64(len(sorted)))
		lo, hi := sorted[k], sorted[len(sorted)-1-k]
		for i, s := range kept {
			if s < lo || s > hi {
				kept[i] = min(max(s, lo), hi)
				st.Winsorized++
			}
		}
	}
	st.Kept = len(kept)
	probs, emSt, err := EstimateEM(m, kept, cfg.EM)
	if err != nil {
		return nil, st, err
	}
	st.EM = emSt
	st.Confident = float64(st.Trimmed)/float64(len(samples)) <= maxTrimFraction
	return probs, st, nil
}

// FuzzSampleCounts checks that a histogram is the sample multiset and
// nothing more. Arbitrary batches of timer ticks (a byte of 0xf0 or more
// starts a new batch) are folded into one SampleCounts by Merge and by
// Add, which must both equal CountSamples of the concatenation. EM over
// that histogram must equal the raw-sample EstimateEM on a shuffled order
// bit for bit, Robust the raw-order reference it replaced, and Moments
// Welford's update over the ascending raw samples. A stream fed the
// batches must equal, every round and under every estimator, Fit over the
// running merge warm-started from the previous round's estimate.
func FuzzSampleCounts(f *testing.F) {
	f.Add([]byte{7, 7, 12, 0xf0, 12, 7, 30, 0xff, 7}, int64(1))
	f.Add([]byte{12, 12, 12, 12}, int64(2))
	f.Add([]byte{0xf0, 0xf0, 3}, int64(3))
	m := twoArmModel(f, 40) // paths at 55 and 95 cycles: ticks 7 and 12 at the 8-cycle tick
	tick := m.Tick()
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		var batches [][]float64
		var all []float64
		cur := []float64{}
		for _, b := range data {
			if b >= 0xf0 {
				batches, cur = append(batches, cur), []float64{}
				continue
			}
			v := float64(b%40) * tick
			cur, all = append(cur, v), append(all, v)
		}
		batches = append(batches, cur)

		want := CountSamples(all)
		var merged, added SampleCounts
		for _, b := range batches {
			merged.Merge(CountSamples(b))
			for _, v := range b {
				added.Add(v, 1)
			}
		}
		if !slices.Equal(merged.Values, want.Values) || !slices.Equal(merged.Counts, want.Counts) {
			t.Fatalf("Merge = %v, CountSamples = %v", merged, want)
		}
		if !slices.Equal(added.Values, want.Values) || !slices.Equal(added.Counts, want.Counts) {
			t.Fatalf("Add = %v, CountSamples = %v", added, want)
		}
		if len(all) == 0 {
			return
		}

		shuffled := slices.Clone(all)
		rng := stats.NewRNG(seed)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		same := func(name string, a, b any, errA, errB error) {
			t.Helper()
			if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: counts %v (%v), raw %v (%v)", name, a, errA, b, errB)
			}
		}
		cfg := EMConfig{MaxIter: 50}
		p1, s1, e1 := estimateEMDense(m, merged, nil, cfg)
		p2, s2, e2 := EstimateEM(m, shuffled, cfg)
		same("EM", []any{p1, s1}, []any{p2, s2}, e1, e2)
		rcfg := RobustConfig{EM: cfg}
		r1, rs1, re1 := estimateRobust(m, merged, nil, rcfg)
		r2, rs2, re2 := robustReference(m, shuffled, rcfg)
		same("Robust", []any{r1, rs1}, []any{r2, rs2}, re1, re2)
		if mo, err := (Moments{}).Fit(m, merged, nil); len(all) < 2 {
			if err == nil {
				t.Fatalf("Moments fitted %d sample", len(all))
			}
		} else {
			ascending := slices.Clone(all)
			slices.Sort(ascending)
			var acc stats.Moments
			for _, v := range ascending {
				acc.Push(v)
			}
			same("Moments", mo.Probs, matchMoments(m, acc.Mean(), acc.Variance()), err, nil)
		}

		for _, est := range []Estimator{EM{Config: cfg}, Robust{Config: rcfg}, Histogram{}, Moments{}} {
			inc := NewIncremental(m, est)
			inc.patience = 1 << 30 // re-estimate every round
			var running SampleCounts
			var last Fit
			iterations := 0
			for _, b := range batches {
				got, err := inc.Observe(CountSamples(b))
				if running.Merge(CountSamples(b)); running.N() == 0 {
					if !errors.Is(err, ErrNoSamples) {
						t.Fatalf("%s stream: empty round err = %v, want ErrNoSamples", est.Name(), err)
					}
					continue
				}
				fit, ferr := est.Fit(m, running, last.Probs)
				same(est.Name()+" stream", got, fit.Probs, err, ferr)
				if ferr == nil {
					last, iterations = fit, iterations+fit.Iterations
				}
			}
			if inc.Iterations() != iterations || inc.Trimmed() != last.Trimmed || inc.Confident() != last.Confident {
				t.Fatalf("%s stream: %d iterations, %d trimmed, confident %v; fits over the running merge: %d, %d, %v",
					est.Name(), inc.Iterations(), inc.Trimmed(), inc.Confident(), iterations, last.Trimmed, last.Confident)
			}
		}
	})
}
