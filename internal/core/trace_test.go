package core

import (
	"testing"
)

func sampleTrace() Trace[string, int] {
	return Trace[string, int]{
		{Context: "a", Decision: 1, Reward: 2, Propensity: 0.5},
		{Context: "b", Decision: 2, Reward: 4, Propensity: 0.5},
		{Context: "c", Decision: 1, Reward: 6, Propensity: 1},
	}
}

func TestTraceRewardsAndMean(t *testing.T) {
	tr := sampleTrace()
	v := mustView(t, tr)
	if v.Len() != 3 || v.RewardAt(0) != 2 || v.RewardAt(2) != 6 {
		t.Fatalf("view rewards %g, %g over %d records", v.RewardAt(0), v.RewardAt(2), v.Len())
	}
	if got := tr.MeanReward(); got != 4 {
		t.Fatalf("MeanReward = %g, want 4", got)
	}
	var empty Trace[string, int]
	if empty.MeanReward() != 0 {
		t.Fatal("empty trace mean should be 0")
	}
}

func TestTraceValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr[1].Propensity = 0
	if err := tr.Validate(); err == nil {
		t.Fatal("expected propensity error")
	}
}

func TestTraceSplit(t *testing.T) {
	tr := make(Trace[string, int], 10)
	for i := range tr {
		tr[i] = Record[string, int]{Propensity: 1}
	}
	fit, eval, err := tr.Split(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fit) != 3 || len(eval) != 7 {
		t.Fatalf("split sizes %d/%d", len(fit), len(eval))
	}
	if _, _, err := tr.Split(0); err == nil {
		t.Fatal("frac 0 should fail")
	}
	if _, _, err := tr.Split(1); err == nil {
		t.Fatal("frac 1 should fail")
	}
	small := tr[:1]
	if _, _, err := small.Split(0.1); err == nil {
		t.Fatal("degenerate split should fail")
	}
}

func TestDecisionCounts(t *testing.T) {
	counts := sampleTrace().DecisionCounts()
	if counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("DecisionCounts = %v", counts)
	}
}

func TestFitTable(t *testing.T) {
	tr := Trace[string, int]{
		{Context: "x", Decision: 1, Reward: 2, Propensity: 1},
		{Context: "x", Decision: 1, Reward: 4, Propensity: 1},
		{Context: "y", Decision: 2, Reward: 10, Propensity: 1},
	}
	m := FitTable(tr, func(c string, d int) string { return c })
	if got := m.Predict("x", 1); got != 3 {
		t.Fatalf("Predict(x) = %g, want 3", got)
	}
	if got := m.Predict("unseen", 7); !almostEqual(got, 16.0/3.0, 1e-12) {
		t.Fatalf("unseen key should fall back to global mean, got %g", got)
	}
}

func TestRewardFuncAndConstantModel(t *testing.T) {
	f := RewardFunc[int, int](func(c, d int) float64 { return float64(c + d) })
	if f.Predict(2, 3) != 5 {
		t.Fatal("RewardFunc broken")
	}
	c := ConstantModel[int, int]{Value: 7}
	if c.Predict(0, 0) != 7 {
		t.Fatal("ConstantModel broken")
	}
}
