package mathx

import "math"

// Welford accumulates mean and variance online in O(1) memory using
// Welford's numerically stable recurrence — the right tool when a
// measurement pipeline streams rewards and materializing the slice is
// wasteful.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean (0 for n < 2).
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Min returns the smallest observation (0 before any observation).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 before any observation).
func (w *Welford) Max() float64 { return w.max }

// Summary converts the accumulator into a Summary.
func (w *Welford) Summary() Summary {
	return Summary{N: w.n, Mean: w.mean, Min: w.min, Max: w.max, Std: w.StdDev()}
}
