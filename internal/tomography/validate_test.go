package tomography

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// Regression: dedup used to run-length-encode via a float-keyed map, where
// NaN keys never compare equal — every NaN sample became its own bucket
// and ±Inf flowed straight into the kernel windows. Non-finite durations
// are now rejected at every estimation entry point before dedup runs.
func TestEstimatorsRejectNonFinite(t *testing.T) {
	m := syntheticModel(t)
	bad := [][]float64{
		{math.NaN()},
		{215, math.NaN(), 230},
		{math.Inf(1)},
		{215, math.Inf(-1)},
	}
	for _, samples := range bad {
		if _, _, err := EstimateEM(m, samples, EMConfig{}); err == nil {
			t.Fatalf("EstimateEM accepted %v", samples)
		} else if !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("EstimateEM(%v): unhelpful error %q", samples, err)
		}
		if _, _, err := EstimateRobust(m, samples, RobustConfig{}); err == nil {
			t.Fatalf("EstimateRobust accepted %v", samples)
		}
	}
	// The error names the offending index so fleet operators can find the
	// corrupt upload.
	_, _, err := EstimateEM(m, []float64{215, math.NaN(), 230}, EMConfig{})
	if err == nil || !strings.Contains(err.Error(), "sample 1") {
		t.Fatalf("error does not locate the bad sample: %v", err)
	}
}

// TestNoSamplesTyped requires every estimator to report an empty sample
// set as ErrNoSamples.
func TestNoSamplesTyped(t *testing.T) {
	m := syntheticModel(t)
	if _, _, err := EstimateEM(m, nil, EMConfig{}); !errors.Is(err, ErrNoSamples) {
		t.Errorf("EstimateEM(nil) err = %v, want ErrNoSamples", err)
	}
	if _, _, err := EstimateRobust(m, nil, RobustConfig{}); !errors.Is(err, ErrNoSamples) {
		t.Errorf("EstimateRobust(nil) err = %v, want ErrNoSamples", err)
	}
	if _, err := EstimateHistogram(m, nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("EstimateHistogram(nil) err = %v, want ErrNoSamples", err)
	}
	if _, err := EstimateMoments(m, nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("EstimateMoments(nil) err = %v, want ErrNoSamples", err)
	}
}
