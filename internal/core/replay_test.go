package core

import (
	"errors"
	"math"
	"testing"

	"drnet/internal/mathx"
)

func TestReplayMatchesDRStationary(t *testing.T) {
	// For a stationary target policy the replay estimator is identical
	// in expectation to the basic DR (§4.2: "identical to the basic DR
	// under the assumption of stationary policies").
	np := banditNewPolicy(0.3)
	model := RewardFunc[float64, int](func(c float64, d int) float64 { return c * float64(d+1) })
	var replayVals, drVals []float64
	for run := 0; run < 40; run++ {
		b := newTestBandit(int64(500+run), 0.1)
		tr, _ := collectBanditTrace(b, 600, 0.6)
		rng := mathx.NewRNG(int64(9000 + run))
		res, err := ReplayDR[float64, int](tr, Stationary[float64, int]{Policy: np}, model, rng)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		replayVals = append(replayVals, res.Estimate.Value)
		drVals = append(drVals, dr.Value)
		if res.Accepted+res.Skipped != len(tr) {
			t.Fatalf("accounting broken: %d + %d != %d", res.Accepted, res.Skipped, len(tr))
		}
	}
	if d := math.Abs(mathx.Mean(replayVals) - mathx.Mean(drVals)); d > 0.05 {
		t.Fatalf("replay mean %g vs DR mean %g differ by %g", mathx.Mean(replayVals), mathx.Mean(drVals), d)
	}
}

// windowPolicy is a history-dependent test policy: it prefers the
// decision whose accepted-history rewards have been highest so far.
type windowPolicy struct{}

func (windowPolicy) DistributionWithHistory(h Trace[float64, int], _ float64) []Weighted[int] {
	sums := map[int]float64{0: 0.1, 1: 0.1, 2: 0.1}
	for _, rec := range h {
		sums[rec.Decision] += rec.Reward
	}
	total := 0.0
	for _, v := range sums {
		total += v
	}
	out := make([]Weighted[int], 0, 3)
	for d := 0; d < 3; d++ {
		out = append(out, Weighted[int]{Decision: d, Prob: sums[d] / total})
	}
	return out
}

func TestReplayNonStationaryConverges(t *testing.T) {
	// A history-based policy shifts probability mass toward the best
	// decision (d=2) as history accrues; the replay estimate should fall
	// between the uniform value (1.0) and the optimal value (1.5) and
	// accept a nontrivial share of records.
	b := newTestBandit(17, 0.05)
	tr, _ := collectBanditTrace(b, 3000, 1.0) // uniform logging
	rng := mathx.NewRNG(99)
	model := RewardFunc[float64, int](func(c float64, d int) float64 { return c * float64(d+1) })
	res, err := ReplayDR[float64, int](tr, windowPolicy{}, model, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted < 100 {
		t.Fatalf("accepted only %d records", res.Accepted)
	}
	if res.Estimate.Value < 0.95 || res.Estimate.Value > 1.6 {
		t.Fatalf("estimate %g outside plausible (0.95, 1.6)", res.Estimate.Value)
	}
}

func TestReplayErrors(t *testing.T) {
	rng := mathx.NewRNG(1)
	model := ConstantModel[float64, int]{}
	if _, err := ReplayDR[float64, int](nil, windowPolicy{}, model, rng); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	tr := Trace[float64, int]{{Context: 0.5, Decision: 7, Reward: 1, Propensity: 0.5}}
	// New policy never chooses decision 7 → no matches.
	never := Stationary[float64, int]{Policy: UniformPolicy[float64, int]{Decisions: []int{0, 1}}}
	if _, err := ReplayDR[float64, int](tr, never, model, rng); !errors.Is(err, ErrNoMatches) {
		t.Fatal("expected ErrNoMatches")
	}
	bad := Trace[float64, int]{{Context: 0.5, Decision: 0, Reward: 1, Propensity: -1}}
	if _, err := ReplayDR[float64, int](bad, never, model, rng); err == nil {
		t.Fatal("expected propensity validation error")
	}
}

func TestHistoryFuncPolicy(t *testing.T) {
	f := HistoryFuncPolicy[float64, int](func(h Trace[float64, int], c float64) []Weighted[int] {
		return []Weighted[int]{{Decision: len(h), Prob: 1}}
	})
	dist := f.DistributionWithHistory(make(Trace[float64, int], 3), 0)
	if dist[0].Decision != 3 {
		t.Fatal("history not passed through")
	}
}
