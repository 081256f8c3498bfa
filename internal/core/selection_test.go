package core

import (
	"errors"
	"testing"

	"drnet/internal/mathx"
)

func banditCandidates() []Candidate[float64, int] {
	return []Candidate[float64, int]{
		{Name: "prefer-0", Policy: banditOldPolicy(0.2)},
		{Name: "prefer-2", Policy: banditNewPolicy(0.2)},
		{Name: "uniform", Policy: UniformPolicy[float64, int]{Decisions: banditDecisions}},
	}
}

func TestSelectBestRanksByTrueValue(t *testing.T) {
	b := newTestBandit(81, 0.1)
	tr, _ := collectBanditTrace(b, 3000, 0.5)
	rng := mathx.NewRNG(5)
	model := RewardFunc[float64, int](b.trueReward)
	ranked, err := SelectBest(mustView(t, tr), model, banditCandidates(), rng, SelectOptions{Bootstrap: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("kept %d candidates, want 3", len(ranked))
	}
	// prefer-2 has the highest true value (reward grows with d).
	if ranked[0].Candidate.Name != "prefer-2" {
		t.Fatalf("best candidate = %q, want prefer-2", ranked[0].Candidate.Name)
	}
	if ranked[len(ranked)-1].Candidate.Name != "prefer-0" {
		t.Fatalf("worst candidate = %q, want prefer-0", ranked[len(ranked)-1].Candidate.Name)
	}
	for _, r := range ranked {
		if r.Interval.Lo > r.Estimate.Value || r.Interval.Hi < r.Estimate.Value {
			t.Fatalf("estimate %g outside its own CI [%g, %g]", r.Estimate.Value, r.Interval.Lo, r.Interval.Hi)
		}
		if r.Diagnostics.N != len(tr) {
			t.Fatal("diagnostics missing")
		}
	}
	// Clearly separated values: intervals should not overlap.
	if Overlaps(ranked) {
		t.Log("warning: best two candidates overlap (acceptable but unexpected at n=3000)")
	}
}

func TestSelectBestFiltersUnsupported(t *testing.T) {
	// Trace logged by a deterministic policy cannot support evaluating
	// a disjoint deterministic candidate.
	b := newTestBandit(82, 0.1)
	old := DeterministicPolicy[float64, int]{Choose: func(float64) int { return 0 }}
	ctxs := b.contexts(500)
	tr := CollectTrace(ctxs, old, b.drawReward, b.rng)
	rng := mathx.NewRNG(6)
	model := RewardFunc[float64, int](b.trueReward)
	cands := []Candidate[float64, int]{
		{Name: "disjoint", Policy: DeterministicPolicy[float64, int]{Choose: func(float64) int { return 2 }}},
	}
	_, err := SelectBest(mustView(t, tr), model, cands, rng, SelectOptions{})
	if !errors.Is(err, ErrNoSupportedCandidates) {
		t.Fatalf("want ErrNoSupportedCandidates, got %v", err)
	}
	// Adding a supported candidate keeps only it.
	cands = append(cands, Candidate[float64, int]{Name: "same", Policy: old})
	ranked, err := SelectBest(mustView(t, tr), model, cands, rng, SelectOptions{Bootstrap: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 || ranked[0].Candidate.Name != "same" {
		t.Fatalf("ranked = %+v", ranked)
	}
}

func TestSelectBestErrors(t *testing.T) {
	rng := mathx.NewRNG(7)
	model := ConstantModel[float64, int]{}
	if _, err := SelectBest(mustView(t, Trace[float64, int]{}), model, banditCandidates(), rng, SelectOptions{}); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	tr := Trace[float64, int]{{Context: 0.5, Decision: 0, Reward: 1, Propensity: 1}}
	if _, err := SelectBest(mustView(t, tr), model, nil, rng, SelectOptions{}); err == nil {
		t.Fatal("expected error for no candidates")
	}
	bad := []Candidate[float64, int]{{Name: "bad", Policy: FuncPolicy[float64, int](func(float64) []Weighted[int] { return nil })}}
	if _, err := SelectBest(mustView(t, tr), model, bad, rng, SelectOptions{}); err == nil {
		t.Fatal("expected invalid-distribution error")
	}
}

func TestOverlaps(t *testing.T) {
	mk := func(lo1, hi1, lo2, hi2 float64) []Ranked[float64, int] {
		return []Ranked[float64, int]{
			{Interval: Interval{Lo: lo1, Hi: hi1}},
			{Interval: Interval{Lo: lo2, Hi: hi2}},
		}
	}
	if !Overlaps(mk(0, 2, 1, 3)) {
		t.Fatal("overlapping intervals not detected")
	}
	if Overlaps(mk(2, 3, 0, 1)) {
		t.Fatal("disjoint intervals reported as overlapping")
	}
	if Overlaps(mk(0, 1, 2, 3)[:1]) {
		t.Fatal("single candidate cannot overlap")
	}
}

func TestFitPropensityModelRecoversLogging(t *testing.T) {
	// Logging depends on the context through a logistic-like rule; the
	// fitted propensities should be close to the truth.
	rng := mathx.NewRNG(91)
	old := FuncPolicy[float64, int](func(x float64) []Weighted[int] {
		p := mathx.Sigmoid(4 * (x - 0.5)) // decision 1 more likely for large x
		return []Weighted[int]{{Decision: 0, Prob: 1 - p}, {Decision: 1, Prob: p}}
	})
	var ctxs []float64
	for i := 0; i < 4000; i++ {
		ctxs = append(ctxs, rng.Float64())
	}
	tr := CollectTrace(ctxs, old, func(float64, int) float64 { return 0 }, rng)
	truth := make([]float64, len(tr))
	for i := range tr {
		truth[i] = tr[i].Propensity
		tr[i].Propensity = 0
	}
	models, err := FitPropensityModel(tr, func(x float64) []float64 { return []float64{x} }, 1e-4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("fitted %d models, want 2", len(models))
	}
	var worst float64
	for i := range tr {
		d := tr[i].Propensity - truth[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 0.1 {
		t.Fatalf("fitted propensities off by up to %g", worst)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFitPropensityModelErrors(t *testing.T) {
	feat := func(x float64) []float64 { return []float64{x} }
	if _, err := FitPropensityModel(Trace[float64, int]{}, feat, 0, 0); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("expected ErrEmptyTrace")
	}
	single := Trace[float64, int]{{Context: 0.5, Decision: 0}}
	if _, err := FitPropensityModel(single, feat, 0, 0); err == nil {
		t.Fatal("single decision should fail")
	}
	two := Trace[float64, int]{{Context: 0.5, Decision: 0}, {Context: 0.6, Decision: 1}}
	if _, err := FitPropensityModel(two, feat, -1, 0); err == nil {
		t.Fatal("negative lambda should fail")
	}
}

func TestFitPropensityModelEnablesDR(t *testing.T) {
	// End-to-end: estimate propensities with the logistic model, then
	// run DR and compare to truth.
	rng := mathx.NewRNG(92)
	b := newTestBandit(93, 0.1)
	old := FuncPolicy[float64, int](func(x float64) []Weighted[int] {
		p := mathx.Sigmoid(3 * (x - 0.5))
		q := (1 - p) / 2
		return []Weighted[int]{{0, q}, {1, q}, {2, p}}
	})
	ctxs := b.contexts(4000)
	tr := CollectTrace(ctxs, old, b.drawReward, b.rng)
	for i := range tr {
		tr[i].Propensity = 0 // forget the logging policy
	}
	if _, err := FitPropensityModel(tr, func(x float64) []float64 { return []float64{x} }, 1e-4, 1e-3); err != nil {
		t.Fatal(err)
	}
	np := banditNewPolicy(0.2)
	truth := TrueValue(ctxs, np, b.trueReward)
	dr, err := DoublyRobustView(mustView(t, tr), np, ConstantModel[float64, int]{Value: 1}, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e := mathx.RelativeError(truth, dr.Value); e > 0.1 {
		t.Fatalf("DR with fitted propensities error %g too high", e)
	}
	_ = rng
}

func TestSafeExplorationPolicy(t *testing.T) {
	model := RewardFunc[int, int](func(c, d int) float64 { return -float64(d) }) // 0 best, regret = d
	p := SafeExplorationPolicy[int, int]{
		Base:      func(int) int { return 0 },
		Decisions: []int{0, 1, 2, 3},
		Model:     model,
		Epsilon:   0.2,
		MaxRegret: 1.5,
	}
	dist := p.Distribution(0)
	if err := ValidateDistribution(dist); err != nil {
		t.Fatal(err)
	}
	// Safe set = {1} (regret 1 <= 1.5); decisions 2, 3 excluded.
	if got := Prob[int, int](p, 0, 0); !almostEqual(got, 0.8, 1e-12) {
		t.Fatalf("greedy prob %g", got)
	}
	if got := Prob[int, int](p, 0, 1); !almostEqual(got, 0.2, 1e-12) {
		t.Fatalf("safe prob %g", got)
	}
	if Prob[int, int](p, 0, 2) != 0 || Prob[int, int](p, 0, 3) != 0 {
		t.Fatal("costly decisions must never be explored")
	}
	// No safe alternatives: deterministic.
	strict := p
	strict.MaxRegret = 0.5
	if got := Prob[int, int](strict, 0, 0); got != 1 {
		t.Fatalf("with no safe set the policy should be deterministic, got %g", got)
	}
	// Zero budget: deterministic.
	off := p
	off.Epsilon = 0
	if got := Prob[int, int](off, 0, 0); got != 1 {
		t.Fatalf("epsilon 0 should be deterministic, got %g", got)
	}
}

// TestSelectBestAsksPolicyOncePerContext: SelectBest builds one table
// per candidate, so its diagnostics, DR estimate and bootstrap ask each
// candidate about each distinct context once, and the estimate and
// diagnostics equal the one-shot calls bit for bit.
func TestSelectBestAsksPolicyOncePerContext(t *testing.T) {
	tr, np, model := quantizedTrace(3000)
	v := mustView(t, tr)
	for _, dr := range []DROptions{{}, {Clip: 3, SelfNormalize: true}} {
		cp := &countingPolicy{Policy: np, calls: map[float64]int{}}
		ranked, err := SelectBest(v, model, []Candidate[float64, int]{{Name: "np", Policy: cp}}, mathx.NewRNG(9), SelectOptions{DR: dr, Bootstrap: 20})
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.calls) != v.NumContexts() {
			t.Fatalf("policy asked about %d contexts, the view has %d", len(cp.calls), v.NumContexts())
		}
		for c, n := range cp.calls {
			if n != 1 {
				t.Fatalf("policy asked about context %g %d times, want once", c, n)
			}
		}
		wantEst, err := DoublyRobustView(v, np, model, dr)
		if err != nil {
			t.Fatal(err)
		}
		wantDiag, err := DiagnoseView(v, np)
		if err != nil {
			t.Fatal(err)
		}
		if got := ranked[0]; got.Estimate != wantEst || got.Diagnostics != wantDiag {
			t.Fatalf("%+v: SelectBest %+v %+v, one-shot %+v %+v", dr, got.Estimate, got.Diagnostics, wantEst, wantDiag)
		}
	}
}
