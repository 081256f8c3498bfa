package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// mulVec returns the matrix-vector product a·x.
func mulVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.rows)
	for i := range out {
		for j, v := range x {
			out[i] += a.At(i, j) * v
		}
	}
	return out
}

// gram returns b·bᵀ, which is symmetric positive semi-definite.
func gram(b *Matrix) *Matrix {
	out := NewMatrix(b.rows, b.rows)
	for i := 0; i < b.rows; i++ {
		for j := 0; j < b.rows; j++ {
			s := 0.0
			for k := 0; k < b.cols; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.rows != 2 || m.cols != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.rows, m.cols)
	}
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %g, want 7", got)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone is not independent of original")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLinear(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestSolveLinearNonSquare(t *testing.T) {
	if _, err := SolveLinear(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("expected non-square error")
	}
	if _, err := SolveLinear(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Fatal("expected rhs length error")
	}
}

// Property: for random well-conditioned SPD systems, solving and then
// multiplying back recovers the right-hand side.
func TestSolveLinearRoundTripProperty(t *testing.T) {
	rng := NewRNG(42)
	f := func(seed uint8) bool {
		r := NewRNG(int64(seed) + rng.Int63n(1000))
		n := 1 + r.Intn(6)
		// A = B Bᵀ + n·I is SPD and well conditioned.
		b := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, r.Normal(0, 1))
			}
		}
		a := gram(b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.Normal(0, 3)
		}
		x, err := SolveLinear(a, rhs)
		if err != nil {
			return false
		}
		back := mulVec(a, x)
		for i := range rhs {
			if !almostEqual(back[i], rhs[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
