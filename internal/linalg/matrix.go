// Package linalg provides the small dense linear-algebra kernel used by the
// Markov model and the tomography estimators: dense matrices, LU
// factorization with partial pivoting, and nonnegative least squares.
//
// The matrices involved are tiny (one state per basic block of a procedure,
// rarely more than a few dozen), so the implementation favours clarity and
// numerical robustness over blocking or parallelism.
package linalg

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: dimension mismatch")

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("%w: %dx%d · vec(%d)", ErrShape, m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}
