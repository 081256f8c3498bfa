package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than
// two observations).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs. It panics on an empty
// slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice or
// out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("mathx: quantile %g out of [0,1]", q))
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Summary holds the descriptive statistics the paper reports for each
// experiment (mean, minimum and maximum over repeated runs), plus the
// standard deviation for convenience.
type Summary struct {
	N              int
	Mean, Min, Max float64
	Std            float64
}

// Summarize computes a Summary of xs. It panics on an empty slice.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	return Summary{N: len(xs), Mean: Mean(xs), Min: min, Max: max, Std: StdDev(xs)}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.4g min=%.4g max=%.4g std=%.4g n=%d", s.Mean, s.Min, s.Max, s.Std, s.N)
}

// RelativeError returns |truth - estimate| / |truth|. When truth is zero
// it falls back to the absolute error, matching the convention used when
// reproducing the paper's relative-error metric on near-zero rewards.
func RelativeError(truth, estimate float64) float64 {
	if truth == 0 {
		return math.Abs(estimate)
	}
	return math.Abs(truth-estimate) / math.Abs(truth)
}

// Correlation returns the Pearson correlation coefficient of xs and ys,
// or 0 when either series is constant.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("mathx: Correlation length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
