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
// are now rejected at both entry points that take outside samples,
// EstimateEM and Incremental.Observe (TestIncrementalRejectsNonFinite),
// before dedup runs.
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
	for _, est := range []Estimator{EM{}, Robust{}, Histogram{}, Moments{}} {
		if _, err := est.Fit(m, SampleCounts{}, nil); !errors.Is(err, ErrNoSamples) {
			t.Errorf("%s over no samples: err = %v, want ErrNoSamples", est.Name(), err)
		}
	}
}
