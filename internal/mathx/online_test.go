package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesBatch(t *testing.T) {
	rng := NewRNG(1)
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.Normal(5, 3)
		w.Add(xs[i])
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("mean %g vs %g", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("variance %g vs %g", w.Variance(), Variance(xs))
	}
	min, max := MinMax(xs)
	if w.Min() != min || w.Max() != max {
		t.Fatal("min/max mismatch")
	}
	if w.N() != 1000 {
		t.Fatalf("N = %d", w.N())
	}
	s := w.Summary()
	if s.N != 1000 || !almostEqual(s.Std, StdDev(xs), 1e-9) {
		t.Fatalf("summary %+v", s)
	}
	if !almostEqual(w.StdErr(), StdDev(xs)/math.Sqrt(1000), 1e-12) {
		t.Fatalf("stderr %g", w.StdErr())
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator should be zero")
	}
	w.Add(7)
	if w.Mean() != 7 || w.Variance() != 0 || w.Min() != 7 || w.Max() != 7 {
		t.Fatal("single observation broken")
	}
}

// Property: Welford agrees with the batch formulas on arbitrary data.
func TestWelfordAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.Normal(0, 1e3)
			w.Add(xs[i])
		}
		return almostEqual(w.Mean(), Mean(xs), 1e-6) &&
			almostEqual(w.Variance(), Variance(xs), 1e-3*Variance(xs)+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
