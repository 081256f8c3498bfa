package mathx

import (
	"errors"
	"fmt"
	"math"
)

// LogisticModel is a fitted binary logistic-regression model. It predicts
// P(y=1 | x) = sigmoid(wᵀx + b).
type LogisticModel struct {
	Weights   []float64
	Intercept float64
}

// LogisticOptions configures FitLogistic.
type LogisticOptions struct {
	// Lambda is the L2 penalty (not applied to the intercept).
	Lambda float64
	// MaxIter bounds the number of Newton iterations (default 50).
	MaxIter int
	// Tol is the convergence tolerance on the max gradient norm
	// (default 1e-8).
	Tol float64
}

// FitLogistic fits binary logistic regression with Newton–Raphson
// (iteratively reweighted least squares). Labels must be 0 or 1.
func FitLogistic(x [][]float64, y []float64, opts LogisticOptions) (*LogisticModel, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("mathx: no observations")
	}
	if len(y) != n {
		return nil, fmt.Errorf("mathx: %d rows but %d labels", n, len(y))
	}
	d := len(x[0])
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-8
	}
	p := d + 1 // always fit an intercept
	w := make([]float64, p)

	row := make([]float64, p)
	grad := make([]float64, p)
	for iter := 0; iter < opts.MaxIter; iter++ {
		hess := NewMatrix(p, p)
		for i := range grad {
			grad[i] = 0
		}
		for i := 0; i < n; i++ {
			if len(x[i]) != d {
				return nil, fmt.Errorf("mathx: row %d has %d features, want %d", i, len(x[i]), d)
			}
			if y[i] != 0 && y[i] != 1 {
				return nil, fmt.Errorf("mathx: label %g at row %d is not 0/1", y[i], i)
			}
			copy(row, x[i])
			row[d] = 1
			z := 0.0
			for j := 0; j < p; j++ {
				z += w[j] * row[j]
			}
			mu := Sigmoid(z)
			resid := mu - y[i]
			wt := mu * (1 - mu)
			if wt < 1e-9 {
				wt = 1e-9
			}
			for a := 0; a < p; a++ {
				grad[a] += resid * row[a]
				for b := a; b < p; b++ {
					hess.Set(a, b, hess.At(a, b)+wt*row[a]*row[b])
				}
			}
		}
		for a := 0; a < p; a++ {
			for b := 0; b < a; b++ {
				hess.Set(a, b, hess.At(b, a))
			}
		}
		for a := 0; a < d; a++ {
			grad[a] += opts.Lambda * w[a]
			hess.Set(a, a, hess.At(a, a)+opts.Lambda)
		}
		// Levenberg-style jitter for stability.
		for a := 0; a < p; a++ {
			hess.Set(a, a, hess.At(a, a)+1e-9)
		}
		step, err := SolveLinear(hess, grad)
		if err != nil {
			return nil, err
		}
		maxG := 0.0
		for a := 0; a < p; a++ {
			w[a] -= step[a]
			if g := math.Abs(grad[a]); g > maxG {
				maxG = g
			}
		}
		if maxG < opts.Tol {
			break
		}
	}
	return &LogisticModel{Weights: w[:d], Intercept: w[d]}, nil
}

// Predict returns P(y=1 | x).
func (m *LogisticModel) Predict(x []float64) float64 {
	z := m.Intercept
	for i, w := range m.Weights {
		z += w * x[i]
	}
	return Sigmoid(z)
}

// Sigmoid is the numerically stable logistic function 1/(1+e^-z).
func Sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
