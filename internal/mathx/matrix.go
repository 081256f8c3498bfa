// Package mathx provides the small dense linear-algebra, statistics and
// random-sampling toolkit that the rest of the repository builds on.
//
// The package is intentionally self-contained (standard library only) and
// favours clarity and numerical robustness over raw speed: the matrices
// involved in trace-driven evaluation are tiny (tens of features), so
// O(n^3) dense algorithms with partial pivoting are entirely adequate.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewMatrix returns a zero-valued matrix with the given shape.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mathx: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mathx: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: matrix is singular or not positive definite")

// SolveLinear solves the square system A x = b using Gaussian elimination
// with partial pivoting. A and b are not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("mathx: SolveLinear needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mathx: rhs length %d, want %d", len(b), n)
	}
	// Work on copies.
	aug := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude entry in this column.
		pivot := col
		best := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				tmp := aug.At(col, j)
				aug.Set(col, j, aug.At(pivot, j))
				aug.Set(pivot, j, tmp)
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				aug.Set(r, j, aug.At(r, j)-f*aug.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= aug.At(i, j) * x[j]
		}
		x[i] = s / aug.At(i, i)
	}
	return x, nil
}
