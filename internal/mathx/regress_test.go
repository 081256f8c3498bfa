package mathx

import "testing"

func TestLogisticSeparatesClasses(t *testing.T) {
	rng := NewRNG(3)
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		// P(y=1) = sigmoid(2*x1 - 1*x2 + 0.5)
		row := []float64{rng.Normal(0, 1), rng.Normal(0, 1)}
		p := Sigmoid(2*row[0] - row[1] + 0.5)
		label := 0.0
		if rng.Bernoulli(p) {
			label = 1
		}
		x = append(x, row)
		y = append(y, label)
	}
	m, err := FitLogistic(x, y, LogisticOptions{Lambda: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Weights[0] < 1 || m.Weights[0] > 3.5 {
		t.Fatalf("w0 = %g, want near 2", m.Weights[0])
	}
	if m.Weights[1] > -0.3 || m.Weights[1] < -2.5 {
		t.Fatalf("w1 = %g, want near -1", m.Weights[1])
	}
	// Predictions should be calibrated in direction.
	if m.Predict([]float64{3, 0}) < 0.9 {
		t.Fatal("strongly positive point should predict near 1")
	}
	if m.Predict([]float64{-3, 0}) > 0.1 {
		t.Fatal("strongly negative point should predict near 0")
	}
}

func TestLogisticErrors(t *testing.T) {
	if _, err := FitLogistic(nil, nil, LogisticOptions{}); err == nil {
		t.Fatal("expected error for no data")
	}
	if _, err := FitLogistic([][]float64{{1}}, []float64{1, 0}, LogisticOptions{}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := FitLogistic([][]float64{{1}}, []float64{0.5}, LogisticOptions{}); err == nil {
		t.Fatal("expected error for non-binary label")
	}
	if _, err := FitLogistic([][]float64{{1}, {1, 2}}, []float64{0, 1}, LogisticOptions{}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestSigmoid(t *testing.T) {
	if !almostEqual(Sigmoid(0), 0.5, 1e-12) {
		t.Fatal("Sigmoid(0) != 0.5")
	}
	if Sigmoid(40) <= 0.999999 {
		t.Fatal("Sigmoid(40) should be ~1")
	}
	if Sigmoid(-40) >= 1e-6 {
		t.Fatal("Sigmoid(-40) should be ~0")
	}
	// Symmetry: sigmoid(-z) = 1 - sigmoid(z).
	for _, z := range []float64{0.1, 1, 5, 17.3} {
		if !almostEqual(Sigmoid(-z), 1-Sigmoid(z), 1e-12) {
			t.Fatalf("symmetry violated at z=%g", z)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}
