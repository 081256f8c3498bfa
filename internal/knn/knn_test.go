package knn

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"drnet/internal/mathx"
)

func TestMetrics(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if Euclidean(a, b) != 5 {
		t.Fatal("Euclidean(3-4-5) != 5")
	}
	if Hamming([]float64{1, 2, 3}, []float64{1, 0, 3}) != 1 {
		t.Fatal("Hamming != 1")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("expected error for no data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := Fit([][]float64{{}}, []float64{1}, Options{}); err == nil {
		t.Fatal("expected error for zero dims")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestPredictExactNeighbor(t *testing.T) {
	x := [][]float64{{0, 0}, {10, 10}, {20, 20}}
	y := []float64{1, 2, 3}
	r, err := Fit(x, y, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		got, err := r.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != y[i] {
			t.Fatalf("Predict(%v) = %g, want %g", x[i], got, y[i])
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestPredictAverage(t *testing.T) {
	x := [][]float64{{0}, {1}, {100}}
	y := []float64{2, 4, 1000}
	r, err := Fit(x, y, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("Predict = %g, want mean(2,4)=3", got)
	}
}

func TestDistanceWeighting(t *testing.T) {
	x := [][]float64{{0}, {10}}
	y := []float64{0, 100}
	r, _ := Fit(x, y, Options{K: 2, DistanceWeight: true})
	got, err := r.Predict([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Query is 1 away from y=0 and 9 away from y=100: the prediction
	// must lean strongly toward 0.
	if got > 20 {
		t.Fatalf("distance-weighted prediction %g should be near 0", got)
	}
}

func TestStandardization(t *testing.T) {
	// Feature 0 spans [0, 1], feature 1 spans [0, 1e6]. Without
	// standardization the second feature dominates; with it, the first
	// feature matters.
	x := [][]float64{
		{0, 0}, {0, 1e6},
		{1, 0}, {1, 1e6},
	}
	y := []float64{0, 0, 10, 10} // target depends only on feature 0
	r, err := Fit(x, y, Options{K: 1, Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Predict([]float64{0.9, 500000})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("standardized prediction = %g, want 10", got)
	}
}

func TestStandardizationConstantFeature(t *testing.T) {
	x := [][]float64{{1, 5}, {2, 5}, {3, 5}}
	y := []float64{1, 2, 3}
	r, err := Fit(x, y, Options{K: 1, Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Predict([]float64{2.1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("prediction with constant feature = %g, want 2", got)
	}
}

func TestQueryDimensionMismatch(t *testing.T) {
	r, _ := Fit([][]float64{{1, 2}}, []float64{1}, Options{})
	if _, err := r.Predict([]float64{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestKLargerThanData(t *testing.T) {
	r, _ := Fit([][]float64{{1}, {2}}, []float64{10, 20}, Options{K: 50})
	got, err := r.Predict([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("K>n should average everything: %g", got)
	}
}

func TestHammingBruteForce(t *testing.T) {
	// Hamming is not tree-prunable; the brute-force path must be used
	// and produce exact neighbours.
	x := [][]float64{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {1, 1, 1}}
	y := []float64{0, 1, 2, 3}
	r, err := Fit(x, y, Options{K: 1, Metric: Hamming})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Predict([]float64{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("Hamming nearest = %g, want 2", got)
	}
}

// Property: kd-tree search returns exactly the same neighbours as brute
// force for random data (Euclidean).
func TestKDTreeMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := mathx.NewRNG(seed)
		n := 5 + rng.Intn(100)
		dim := 1 + rng.Intn(4)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, dim)
			for j := range x[i] {
				x[i][j] = rng.Normal(0, 1)
			}
			y[i] = rng.Normal(0, 1)
		}
		k := 1 + rng.Intn(5)
		r, err := Fit(x, y, Options{K: k})
		if err != nil {
			return false
		}
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Normal(0, 1)
		}
		nbrs, err := r.Neighbors(q, k)
		if err != nil {
			return false
		}
		// Brute force.
		type pair struct {
			idx  int
			dist float64
		}
		all := make([]pair, n)
		for i := range x {
			all[i] = pair{i, Euclidean(q, x[i])}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].dist < all[j].dist })
		if len(nbrs) != k {
			return false
		}
		for i := 0; i < k; i++ {
			// Compare distances (indices can tie).
			if math.Abs(nbrs[i].dist-all[i].dist) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRegressionQuality(t *testing.T) {
	// k-NN should recover a smooth function reasonably well.
	rng := mathx.NewRNG(5)
	var x [][]float64
	var y []float64
	f := func(a, b float64) float64 { return math.Sin(a) + b*b }
	for i := 0; i < 2000; i++ {
		a, b := rng.Uniform(-2, 2), rng.Uniform(-1, 1)
		x = append(x, []float64{a, b})
		y = append(y, f(a, b)+rng.Normal(0, 0.05))
	}
	r, err := Fit(x, y, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for i := 0; i < 100; i++ {
		a, b := rng.Uniform(-1.5, 1.5), rng.Uniform(-0.8, 0.8)
		got, err := r.Predict([]float64{a, b})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, math.Abs(got-f(a, b)))
	}
	if m := mathx.Mean(errs); m > 0.15 {
		t.Fatalf("mean absolute error %g too high", m)
	}
}
