package mathx

import (
	"math"
	"testing"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %g, want 5", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %g, want %g", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %g", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases should return 0")
	}
}

func TestMinMaxQuantileMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	min, max := MinMax(xs)
	if min != 1 || max != 9 {
		t.Fatalf("MinMax = %g,%g", min, max)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %g", got)
	}
	if got := Median([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("median = %g", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Fatalf("singleton quantile = %g", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	mustPanic(t, func() { Quantile(nil, 0.5) })
	mustPanic(t, func() { Quantile([]float64{1}, -0.1) })
	mustPanic(t, func() { MinMax(nil) })
	mustPanic(t, func() { Summarize(nil) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("bad summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(10, 8); !almostEqual(got, 0.2, 1e-12) {
		t.Fatalf("RelativeError = %g, want 0.2", got)
	}
	if got := RelativeError(0, 0.7); got != 0.7 {
		t.Fatalf("zero-truth fallback = %g, want 0.7", got)
	}
	if got := RelativeError(-4, -5); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("negative truth: %g, want 0.25", got)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Correlation(xs, xs); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("self-correlation = %g", got)
	}
	neg := []float64{4, 3, 2, 1}
	if got := Correlation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("anti-correlation = %g", got)
	}
	if got := Correlation(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant series should give 0, got %g", got)
	}
	if got := Correlation([]float64{1}, []float64{2}); got != 0 {
		t.Fatalf("short series should give 0, got %g", got)
	}
	mustPanic(t, func() { Correlation([]float64{1}, []float64{1, 2}) })
}
