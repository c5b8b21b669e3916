package linalg

import (
	"fmt"
	"math"
)

// NNLS solves min ‖A·x − b‖₂ subject to x ≥ 0 using projected gradient
// descent with an adaptive step. It is used for histogram tomography where
// path weights must be nonnegative. maxIter bounds the iteration count.
func NNLS(a *Matrix, b []float64, maxIter int) ([]float64, error) {
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), m)
	}
	if maxIter <= 0 {
		maxIter = 2000
	}
	at := a.Transpose()
	// Lipschitz estimate via power iteration on AᵀA.
	v := make([]float64, n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	lip := 1.0
	for it := 0; it < 30; it++ {
		av, _ := a.MulVec(v)
		atav, _ := at.MulVec(av)
		norm := 0.0
		for _, x := range atav {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		for i := range v {
			v[i] = atav[i] / norm
		}
		lip = norm
	}
	step := 1 / (lip + 1e-12)

	x := make([]float64, n)
	for it := 0; it < maxIter; it++ {
		ax, _ := a.MulVec(x)
		resid := make([]float64, m)
		for i := range resid {
			resid[i] = ax[i] - b[i]
		}
		grad, _ := at.MulVec(resid)
		moved := 0.0
		for i := range x {
			nx := x[i] - step*grad[i]
			if nx < 0 {
				nx = 0
			}
			moved += math.Abs(nx - x[i])
			x[i] = nx
		}
		if moved < 1e-12 {
			break
		}
	}
	return x, nil
}
