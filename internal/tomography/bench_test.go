package tomography

import (
	"fmt"
	"testing"

	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/stats"
)

// BenchmarkEstimateEM is the baseline for the estimation hot loop: one
// branch, quantized durations, default EM settings. The dedup pass makes
// cost a function of distinct durations, not raw sample count, so the two
// sizes should be close per op.
func BenchmarkEstimateEM(b *testing.B) {
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := twoArmModel(b, 40)
			truth := markov.Uniform(m.Proc)
			truth[[2]ir.BlockID{0, 1}] = 0.7
			truth[[2]ir.BlockID{0, 2}] = 0.3
			samples := sampleDurations(b, m, truth, n, 4, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := EstimateEM(m, samples, EMConfig{KernelHalfWidth: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// pathScaledSetup builds a diamond-chain model with 2^k enumerated paths
// and a quantized sample set — the scaling corpus for the dense-vs-
// reference benchmarks. Everything derives from the fixed seed, so the
// dense and reference benchmarks run on identical inputs.
func pathScaledSetup(b *testing.B, diamonds, n int) (*Model, []float64, EMConfig) {
	b.Helper()
	rng := stats.NewRNG(int64(diamonds) * 1009)
	m := randomModel(b, rng, diamonds)
	truth := randomTruth(m, rng)
	samples := sampleDurations(b, m, truth, n, 4, 5)
	return m, samples, EMConfig{KernelHalfWidth: 8, MaxIter: 30}
}

// BenchmarkEstimateEMPaths scales the dense kernel over path-set size —
// the ISSUE's headline measurement (256/1024/4096 paths).
func BenchmarkEstimateEMPaths(b *testing.B) {
	for _, diamonds := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("paths=%d", 1<<diamonds), func(b *testing.B) {
			m, samples, cfg := pathScaledSetup(b, diamonds, 2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := EstimateEM(m, samples, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateEMReferencePaths is the retained map-based kernel on
// the same corpus — the denominator of the committed speedups.
func BenchmarkEstimateEMReferencePaths(b *testing.B) {
	for _, diamonds := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("paths=%d", 1<<diamonds), func(b *testing.B) {
			m, samples, cfg := pathScaledSetup(b, diamonds, 2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := EstimateEMReference(m, samples, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildSupports isolates observation-support construction: the
// O(n·log paths) binary-search pass that replaced the O(n·paths) scan.
func BenchmarkBuildSupports(b *testing.B) {
	for _, diamonds := range []int{8, 10, 12} {
		b.Run(fmt.Sprintf("paths=%d", 1<<diamonds), func(b *testing.B) {
			m, samples, cfg := pathScaledSetup(b, diamonds, 2000)
			obs, counts := dedup(samples)
			times := m.sortedTimes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildSupports(times, obs, counts, cfg.KernelHalfWidth)
			}
		})
	}
}

// BenchmarkObserveWarmVsCold measures one Incremental round at equal
// accumulated sample counts: "cold" solves 2000 samples from the uniform
// start (round one), "warm" has already seen 1900 and folds in the last
// 100 — the steady-state cost the warm start and the running histogram
// are meant to shrink.
func BenchmarkObserveWarmVsCold(b *testing.B) {
	m, samples, _ := pathScaledSetup(b, 10, 2000)
	// Streaming tolerance: tight enough to act on, loose enough that a
	// warm start lands within a handful of iterations. (At very tight
	// tolerances EM's slow geometric tail dominates both rounds and the
	// warm advantage shrinks.)
	est := EM{Config: EMConfig{KernelHalfWidth: 4, Tol: 1e-4}}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc := NewIncremental(m, est, 1e-3, 2)
			if _, err := inc.Observe(samples); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			inc := NewIncremental(m, est, 1e-3, 1<<30)
			if _, err := inc.Observe(samples[:1900]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := inc.Observe(samples[1900:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkIncrementalObserve(b *testing.B) {
	m := twoArmModel(b, 40)
	truth := markov.Uniform(m.Proc)
	truth[[2]ir.BlockID{0, 1}] = 0.7
	truth[[2]ir.BlockID{0, 2}] = 0.3
	samples := sampleDurations(b, m, truth, 2000, 4, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inc := NewIncremental(m, EM{Config: EMConfig{KernelHalfWidth: 4}}, 1e-3, 2)
		for j := 0; j < len(samples); j += 250 {
			if _, err := inc.Observe(samples[j : j+250]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
