package mathx

import (
	"testing"
	"testing/quick"
)

func TestNormalMoments(t *testing.T) {
	r := NewRNG(1)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Normal(3, 2)
	}
	if m := Mean(xs); !almostEqual(m, 3, 0.05) {
		t.Fatalf("mean = %g, want ~3", m)
	}
	if s := StdDev(xs); !almostEqual(s, 2, 0.05) {
		t.Fatalf("std = %g, want ~2", s)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced %g", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(3)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.Exponential(4)
	}
	if m := Mean(xs); !almostEqual(m, 0.25, 0.01) {
		t.Fatalf("mean = %g, want ~0.25", m)
	}
	mustPanic(t, func() { r.Exponential(0) })
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(4)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; !almostEqual(p, 0.3, 0.01) {
		t.Fatalf("frequency = %g, want ~0.3", p)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := NewRNG(5)
	weights := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if !almostEqual(got, want, 0.01) {
			t.Fatalf("bucket %d frequency %g, want ~%g", i, got, want)
		}
	}
	mustPanic(t, func() { r.Categorical([]float64{0, 0}) })
	mustPanic(t, func() { r.Categorical([]float64{-1, 2}) })
}

func TestCategoricalDegenerateWeight(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 100; i++ {
		if got := r.Categorical([]float64{0, 0, 5, 0}); got != 2 {
			t.Fatalf("one-hot weights chose %d", got)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform out of range: %g", v)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Normal(0, 1) != b.Normal(0, 1) {
			t.Fatal("same seed produced different streams")
		}
	}
}

// Property: Categorical never returns an index with zero weight.
func TestCategoricalZeroWeightProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(8)
		ws := make([]float64, n)
		zero := r.Intn(n)
		for i := range ws {
			if i != zero {
				ws[i] = r.Float64() + 0.01
			}
		}
		for k := 0; k < 50; k++ {
			if r.Categorical(ws) == zero {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
