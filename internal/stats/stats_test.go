package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(1)
	f1 := g.Fork()
	f2 := g.Fork()
	same := true
	for i := 0; i < 20; i++ {
		if f1.Float64() != f2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forked streams are identical")
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(7)
	var m Moments
	for i := 0; i < 200000; i++ {
		m.Push(g.Normal(5, 2))
	}
	if math.Abs(m.Mean()-5) > 0.05 {
		t.Fatalf("mean = %v, want ~5", m.Mean())
	}
	if sd := math.Sqrt(m.Variance()); math.Abs(sd-2) > 0.05 {
		t.Fatalf("stddev = %v, want ~2", sd)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(9)
	var m Moments
	for i := 0; i < 100000; i++ {
		m.Push(g.Exponential(4))
	}
	if math.Abs(m.Mean()-0.25) > 0.01 {
		t.Fatalf("mean = %v, want ~0.25", m.Mean())
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(13)
	p := 0.3
	var m Moments
	for i := 0; i < 100000; i++ {
		m.Push(float64(g.Geometric(p)))
	}
	want := (1 - p) / p
	if math.Abs(m.Mean()-want) > 0.05 {
		t.Fatalf("Geometric mean = %v, want ~%v", m.Mean(), want)
	}
	if g.Geometric(1) != 0 {
		t.Fatal("Geometric(1) must be 0")
	}
}

func TestMomentsWelford(t *testing.T) {
	var m Moments
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		m.Push(x)
	}
	if m.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", m.Mean())
	}
	// Unbiased variance of this classic sample is 32/7.
	if math.Abs(m.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", m.Variance(), 32.0/7)
	}
}

func TestMetrics(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 2, 5}
	mae, err := MAE(a, b)
	if err != nil || mae != 1 {
		t.Fatalf("MAE = %v, %v", mae, err)
	}
	if _, err := MAE(a, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// Property: Moments matches the direct two-pass formulas.
func TestMomentsMatchesDirectProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		n := 2 + g.Intn(50)
		xs := make([]float64, n)
		var m Moments
		for i := range xs {
			xs[i] = g.Normal(0, 10)
			m.Push(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		if math.Abs(m.Mean()-mean) > 1e-9 {
			return false
		}
		return math.Abs(m.Variance()-ss/float64(n-1)) < 1e-9*(1+m.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
