package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

func TestP95NeedsTenSamplesBeyondIt(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{1, false}, {20, false}, {199, false}, {200, true}, {1000, true}} {
		l := summarize(ramp(tc.n))
		if l.P95OK != tc.ok {
			t.Errorf("n=%d: P95OK=%v, want %v", tc.n, l.P95OK, tc.ok)
		}
		if l.N != tc.n {
			t.Errorf("n=%d: N=%d", tc.n, l.N)
		}
	}
	// Nearest rank: the 190th of 200 samples 1..200, with exactly ten
	// samples above it.
	if l := summarize(ramp(200)); l.P95 != 190 || l.P50 != 100 {
		t.Errorf("ramp(200): p50=%v p95=%v, want 100 and 190", l.P50, l.P95)
	}
}

func TestSummarizeLeavesInputAlone(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("summarize reordered its input: %v", in)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.9, 1.0, 1.1, 1.05, 0.95, 1.2, 0.8}, [3]float64{0.9, 1.0, 1.1}},
	} {
		got := quartiles(tc.in)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestSpreadIsInterquartileOverMedian(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
