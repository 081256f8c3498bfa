package core

import (
	"errors"
	"math"
	"testing"

	"drnet/internal/mathx"
)

func TestEstimatePropensitiesRecoversTruth(t *testing.T) {
	// Log from a known stochastic policy, estimate propensities from the
	// trace alone, and compare with truth.
	rng := mathx.NewRNG(21)
	old := EpsilonGreedyPolicy[int, int]{
		Base:      func(c int) int { return c % 3 }, // depends on context group
		Decisions: []int{0, 1, 2},
		Epsilon:   0.4,
	}
	var ctxs []int
	for i := 0; i < 9000; i++ {
		ctxs = append(ctxs, rng.Intn(3))
	}
	tr := CollectTrace(ctxs, old, func(int, int) float64 { return 0 }, rng)
	// Blank out the propensities to simulate an unknown logging policy.
	truth := make([]float64, len(tr))
	for i := range tr {
		truth[i] = tr[i].Propensity
		tr[i].Propensity = 0
	}
	key := func(c int) string { return string(rune('0' + c)) }
	if err := EstimatePropensities(tr, key, 10, 1e-4); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := range tr {
		if e := math.Abs(tr[i].Propensity - truth[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.05 {
		t.Fatalf("estimated propensities off by up to %g", maxErr)
	}
}

func TestEstimatePropensitiesSmallGroupFallback(t *testing.T) {
	tr := Trace[int, int]{
		{Context: 1, Decision: 0},
		{Context: 2, Decision: 0},
		{Context: 2, Decision: 0},
		{Context: 2, Decision: 1},
	}
	// Context 1 appears once: with minCount 2 it must use the marginal
	// distribution (3/4 for decision 0).
	if err := EstimatePropensities(tr, func(c int) string { return string(rune('0' + c)) }, 2, 1e-4); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tr[0].Propensity, 0.75, 1e-12) {
		t.Fatalf("fallback propensity %g, want 0.75", tr[0].Propensity)
	}
}

func TestEstimatePropensitiesFloorAndEmpty(t *testing.T) {
	var empty Trace[int, int]
	if err := EstimatePropensities(empty, func(int) string { return "" }, 1, 0); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	tr := Trace[int, int]{{Context: 0, Decision: 0}}
	if err := EstimatePropensities(tr, func(int) string { return "g" }, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if tr[0].Propensity != 1 {
		t.Fatalf("propensity %g, want capped at 1", tr[0].Propensity)
	}
}
