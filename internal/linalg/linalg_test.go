package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 4.5)
	if m.At(1, 2) != 4.5 {
		t.Fatalf("At(1,2) = %v, want 4.5", m.At(1, 2))
	}
	m.Add(1, 2, 0.5)
	if m.At(1, 2) != 5 {
		t.Fatalf("after Add, At(1,2) = %v, want 5", m.At(1, 2))
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 1) did not panic")
		}
	}()
	NewMatrix(0, 1)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := FromRows(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestIdentityMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	i2 := Identity(2)
	p, err := a.Mul(i2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatalf("A·I differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulShapes(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("incompatible Mul accepted")
	}
	if _, err := a.MulVec([]float64{1, 2}); err == nil {
		t.Fatal("incompatible MulVec accepted")
	}
}

func TestTranspose(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", at.At(2, 1))
	}
}

func TestLUSolveKnown(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	x, err := Solve(a, []float64{5, -2, 9})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factor(a); err == nil {
		t.Fatal("singular matrix factored without error")
	}
}

// Property: LU solves random well-conditioned systems to high accuracy.
func TestLUSolveRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
			a.Add(i, i, float64(n)+2) // diagonal dominance → well conditioned
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.NormFloat64()
		}
		b, _ := a.MulVec(xTrue)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-8) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNNLSNonnegativityAndFit(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
		{1, 1, 1},
	})
	b := []float64{1, 2, 3, 6}
	x, err := NNLS(a, b, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if x[i] < 0 {
			t.Fatalf("x[%d] = %v < 0", i, x[i])
		}
		if !almostEqual(x[i], want[i], 1e-3) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestNNLSClampsNegatives(t *testing.T) {
	// Unconstrained solution is negative; NNLS must clamp to 0.
	a, _ := FromRows([][]float64{{1}, {1}})
	b := []float64{-1, -2}
	x, err := NNLS(a, b, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 {
		t.Fatalf("x = %v, want [0]", x)
	}
}

// Property: transpose is an involution and Mul associates with vectors.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		tt := m.Transpose().Transpose()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if tt.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
