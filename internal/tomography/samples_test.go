package tomography

import (
	"reflect"
	"slices"
	"testing"

	"codetomo/internal/markov"
	"codetomo/internal/stats"
)

// robustReference is EstimateRobust as it ran on raw samples before it
// took histograms: trim and winsorize in input order, then EM over what is
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
// Add, which must both equal CountSamples of the concatenation. EM, Robust
// and Histogram over that histogram must equal the raw-sample calls on a
// shuffled order bit for bit, Robust also the raw-order reference it
// replaced, and a stream fed the batches as histograms must match one fed
// them raw.
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
		ascending := slices.Clone(all)
		slices.Sort(ascending)
		if got := merged.AppendSamples(nil); !slices.Equal(got, ascending) {
			t.Fatalf("AppendSamples = %v", got)
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
		p1, s1, e1 := estimateEMDense(m, merged.Values, merged.Counts, cfg)
		p2, s2, e2 := EstimateEM(m, shuffled, cfg)
		same("EM", []any{p1, s1}, []any{p2, s2}, e1, e2)
		rcfg := RobustConfig{EM: cfg}
		r1, rs1, re1 := estimateRobust(m, merged, rcfg)
		r2, rs2, re2 := EstimateRobust(m, shuffled, rcfg)
		same("Robust", []any{r1, rs1}, []any{r2, rs2}, re1, re2)
		r3, rs3, re3 := robustReference(m, shuffled, rcfg)
		same("Robust reference", []any{r1, rs1}, []any{r3, rs3}, re1, re3)
		h1, he1 := estimateHistogram(m, merged)
		h2, he2 := EstimateHistogram(m, shuffled)
		same("Histogram", h1, h2, he1, he2)

		for _, est := range []Estimator{EM{Config: cfg}, Robust{Config: rcfg}, Histogram{}} {
			byCounts := NewIncremental(m, est, 0, 0)
			byRaw := NewIncremental(m, est, 0, 0)
			for _, b := range batches {
				pc, ec := byCounts.ObserveCounts(CountSamples(b))
				pr, er := byRaw.Observe(b)
				same(est.Name()+" stream", pc, pr, ec, er)
			}
			if byCounts.Iterations() != byRaw.Iterations() || byCounts.Trimmed() != byRaw.Trimmed() {
				t.Fatalf("%s stream: counts and raw streams report different effort", est.Name())
			}
		}
	})
}
