package core

import (
	"errors"
	"math"
	"testing"

	"drnet/internal/mathx"
)

// testBandit is a synthetic contextual bandit with known ground truth:
// contexts are scalars in [0,1], decisions are {0,1,2}, and the true
// expected reward is r(c,d) = c*(d+1). Noise is additive Gaussian.
type testBandit struct {
	rng   *mathx.RNG
	noise float64
}

func newTestBandit(seed int64, noise float64) *testBandit {
	return &testBandit{rng: mathx.NewRNG(seed), noise: noise}
}

func (b *testBandit) trueReward(c float64, d int) float64 { return c * float64(d+1) }

func (b *testBandit) drawReward(c float64, d int) float64 {
	return b.trueReward(c, d) + b.rng.Normal(0, b.noise)
}

func (b *testBandit) contexts(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = b.rng.Float64()
	}
	return out
}

var banditDecisions = []int{0, 1, 2}

func banditOldPolicy(eps float64) Policy[float64, int] {
	return EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: banditDecisions,
		Epsilon:   eps,
	}
}

func banditNewPolicy(eps float64) Policy[float64, int] {
	return EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 2 },
		Decisions: banditDecisions,
		Epsilon:   eps,
	}
}

func collectBanditTrace(b *testBandit, n int, oldEps float64) (Trace[float64, int], []float64) {
	ctxs := b.contexts(n)
	tr := CollectTrace(ctxs, banditOldPolicy(oldEps), b.drawReward, b.rng)
	return tr, ctxs
}

func TestEmptyTraceErrors(t *testing.T) {
	var tr Trace[float64, int]
	np := banditNewPolicy(0.1)
	model := ConstantModel[float64, int]{}
	if _, err := DirectMethodView(mustView(t, tr), np, model); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("DM should reject empty trace")
	}
	if _, err := IPSView(mustView(t, tr), np, IPSOptions{}); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("IPS should reject empty trace")
	}
	if _, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{}); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("DR should reject empty trace")
	}
	if _, err := MatchedRewardsView(mustView(t, tr), np); !errors.Is(err, ErrEmptyTrace) {
		t.Fatal("MatchedRewards should reject empty trace")
	}
}

func TestInvalidPropensityRejected(t *testing.T) {
	// The view refuses what IPS and DR could not weight.
	tr := Trace[float64, int]{{Context: 0.5, Decision: 0, Reward: 1, Propensity: 0}}
	if _, err := NewTraceView(tr); err == nil {
		t.Fatal("view should reject zero propensity")
	}
	tr[0].Propensity = 1.5
	if _, err := NewTraceView(tr); err == nil {
		t.Fatal("view should reject propensity > 1")
	}
	tr[0].Propensity = 0.5
	tr[0].Reward = math.NaN()
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate should reject NaN reward")
	}
}

func TestDMExactWithTrueModel(t *testing.T) {
	b := newTestBandit(1, 0)
	tr, ctxs := collectBanditTrace(b, 2000, 0.3)
	np := banditNewPolicy(0.1)
	model := RewardFunc[float64, int](b.trueReward)
	est, err := DirectMethodView(mustView(t, tr), np, model)
	if err != nil {
		t.Fatal(err)
	}
	truth := TrueValue(ctxs, np, b.trueReward)
	if math.Abs(est.Value-truth) > 1e-12 {
		t.Fatalf("DM with true model = %g, truth = %g", est.Value, truth)
	}
	if est.ESS != float64(est.N) {
		t.Fatal("DM ESS should equal N")
	}
}

func TestDMBiasedWithWrongModel(t *testing.T) {
	b := newTestBandit(2, 0)
	tr, ctxs := collectBanditTrace(b, 2000, 0.3)
	np := banditNewPolicy(0.1)
	truth := TrueValue(ctxs, np, b.trueReward)
	est, err := DirectMethodView(mustView(t, tr), np, ConstantModel[float64, int]{Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth) < 0.5 {
		t.Fatalf("constant model should be badly biased: est %g vs truth %g", est.Value, truth)
	}
}

func TestIPSUnbiased(t *testing.T) {
	// Average IPS over many small traces: should converge to the truth.
	np := banditNewPolicy(0.1)
	var estimates []float64
	var truths []float64
	for run := 0; run < 60; run++ {
		b := newTestBandit(int64(100+run), 0.1)
		tr, ctxs := collectBanditTrace(b, 500, 0.5)
		est, err := IPSView(mustView(t, tr), np, IPSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		estimates = append(estimates, est.Value)
		truths = append(truths, TrueValue(ctxs, np, b.trueReward))
	}
	if d := math.Abs(mathx.Mean(estimates) - mathx.Mean(truths)); d > 0.03 {
		t.Fatalf("IPS bias %g too large", d)
	}
}

func TestIPSHighVarianceUnderLowRandomness(t *testing.T) {
	// §4.1: as the old policy's exploration shrinks, IPS variance grows.
	np := banditNewPolicy(0.05)
	variance := func(oldEps float64) float64 {
		var vals []float64
		for run := 0; run < 40; run++ {
			b := newTestBandit(int64(1000+run), 0.1)
			tr, _ := collectBanditTrace(b, 300, oldEps)
			est, err := IPSView(mustView(t, tr), np, IPSOptions{})
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, est.Value)
		}
		return mathx.Variance(vals)
	}
	vHigh := variance(0.9) // lots of exploration
	vLow := variance(0.03) // nearly deterministic old policy
	if vLow <= vHigh {
		t.Fatalf("expected variance to grow as exploration shrinks: v(0.03)=%g <= v(0.9)=%g", vLow, vHigh)
	}
}

func TestIPSClippingReducesMaxWeight(t *testing.T) {
	b := newTestBandit(3, 0.1)
	tr, _ := collectBanditTrace(b, 500, 0.05)
	np := banditNewPolicy(0.05)
	unclipped, err := IPSView(mustView(t, tr), np, IPSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clipped, err := IPSView(mustView(t, tr), np, IPSOptions{Clip: 2})
	if err != nil {
		t.Fatal(err)
	}
	if unclipped.MaxWeight <= 2 {
		t.Skip("trace did not produce large weights")
	}
	if clipped.MaxWeight > 2 {
		t.Fatalf("clipped max weight = %g, want <= 2", clipped.MaxWeight)
	}
	if clipped.ESS < unclipped.ESS {
		t.Fatalf("clipping should not reduce ESS: %g < %g", clipped.ESS, unclipped.ESS)
	}
}

func TestSNIPSWithinRewardRange(t *testing.T) {
	// Self-normalized IPS is a convex combination of observed rewards,
	// so it can never leave their range — unlike plain IPS.
	b := newTestBandit(4, 0.1)
	tr, _ := collectBanditTrace(b, 200, 0.05)
	np := banditNewPolicy(0.05)
	est, err := IPSView(mustView(t, tr), np, IPSOptions{SelfNormalize: true})
	if err != nil {
		t.Fatal(err)
	}
	min, max := mathx.MinMax(tr.Rewards())
	if est.Value < min-1e-9 || est.Value > max+1e-9 {
		t.Fatalf("SNIPS %g outside reward range [%g, %g]", est.Value, min, max)
	}
}

func TestDRExactWhenModelExact(t *testing.T) {
	// Special case 2 from §3: with the true reward model, residuals
	// vanish in expectation and DR ≈ DM = truth.
	b := newTestBandit(5, 0)
	tr, ctxs := collectBanditTrace(b, 2000, 0.3)
	np := banditNewPolicy(0.1)
	model := RewardFunc[float64, int](b.trueReward)
	est, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth := TrueValue(ctxs, np, b.trueReward)
	// Noise-free: residual r_k - r̂ = 0 exactly, so DR = DM = truth.
	if math.Abs(est.Value-truth) > 1e-12 {
		t.Fatalf("DR with exact model = %g, truth %g", est.Value, truth)
	}
}

func TestDREqualsIPSWhenPoliciesAgree(t *testing.T) {
	// Special case 1 from §3: when old and new policies put the same
	// probability on logged decisions, the model contributions cancel
	// only for the logged decision; with a deterministic shared policy,
	// DR = IPS exactly.
	b := newTestBandit(6, 0.1)
	shared := DeterministicPolicy[float64, int]{Choose: func(float64) int { return 1 }}
	ctxs := b.contexts(300)
	tr := CollectTrace(ctxs, shared, b.drawReward, b.rng)
	model := ConstantModel[float64, int]{Value: 42} // arbitrary, should cancel
	dr, err := DoublyRobustView(mustView(t, tr), shared, model, DROptions{})
	if err != nil {
		t.Fatal(err)
	}
	ips, err := IPSView(mustView(t, tr), shared, IPSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dr.Value-ips.Value) > 1e-9 {
		t.Fatalf("DR %g != IPS %g for identical deterministic policies", dr.Value, ips.Value)
	}
}

func TestDRRobustToWrongModel(t *testing.T) {
	// Double robustness leg 1: propensities right, model wrong →
	// still consistent.
	np := banditNewPolicy(0.1)
	var errs []float64
	for run := 0; run < 40; run++ {
		b := newTestBandit(int64(200+run), 0.1)
		tr, ctxs := collectBanditTrace(b, 800, 0.5)
		est, err := DoublyRobustView(mustView(t, tr), np, ConstantModel[float64, int]{Value: -3}, DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, est.Value-TrueValue(ctxs, np, b.trueReward))
	}
	if bias := math.Abs(mathx.Mean(errs)); bias > 0.05 {
		t.Fatalf("DR bias with wrong model = %g, want ~0", bias)
	}
}

func TestDRRobustToWrongPropensities(t *testing.T) {
	// Double robustness leg 2: model right, propensities wrong →
	// still consistent (residuals are centred at zero).
	np := banditNewPolicy(0.1)
	var errs []float64
	for run := 0; run < 40; run++ {
		b := newTestBandit(int64(300+run), 0.1)
		tr, ctxs := collectBanditTrace(b, 800, 0.5)
		for i := range tr {
			tr[i].Propensity = mathx.Clamp(tr[i].Propensity*2.5, 0.01, 1) // corrupt
		}
		est, err := DoublyRobustView(mustView(t, tr), np, RewardFunc[float64, int](func(c float64, d int) float64 {
			return c * float64(d+1)
		}), DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, est.Value-TrueValue(ctxs, np, b.trueReward))
	}
	if bias := math.Abs(mathx.Mean(errs)); bias > 0.05 {
		t.Fatalf("DR bias with wrong propensities = %g, want ~0", bias)
	}
}

func TestDRBeatsDMAndIPSWithNoisyModel(t *testing.T) {
	// The headline claim: with a slightly wrong model AND a valid trace,
	// DR's RMSE beats both a biased DM and a high-variance IPS.
	np := banditNewPolicy(0.05)
	biasedModel := RewardFunc[float64, int](func(c float64, d int) float64 {
		return c*float64(d+1) + 0.4 // systematic offset
	})
	var dmErr, ipsErr, drErr []float64
	for run := 0; run < 50; run++ {
		b := newTestBandit(int64(400+run), 0.3)
		tr, ctxs := collectBanditTrace(b, 250, 0.15)
		truth := TrueValue(ctxs, np, b.trueReward)
		dm, err := DirectMethodView(mustView(t, tr), np, biasedModel)
		if err != nil {
			t.Fatal(err)
		}
		ips, err := IPSView(mustView(t, tr), np, IPSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dr, err := DoublyRobustView(mustView(t, tr), np, biasedModel, DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		dmErr = append(dmErr, (dm.Value-truth)*(dm.Value-truth))
		ipsErr = append(ipsErr, (ips.Value-truth)*(ips.Value-truth))
		drErr = append(drErr, (dr.Value-truth)*(dr.Value-truth))
	}
	dmMSE, ipsMSE, drMSE := mathx.Mean(dmErr), mathx.Mean(ipsErr), mathx.Mean(drErr)
	if drMSE >= dmMSE {
		t.Fatalf("DR MSE %g should beat biased DM MSE %g", drMSE, dmMSE)
	}
	if drMSE >= ipsMSE {
		t.Fatalf("DR MSE %g should beat IPS MSE %g", drMSE, ipsMSE)
	}
}

func TestMatchedRewards(t *testing.T) {
	b := newTestBandit(7, 0)
	tr, _ := collectBanditTrace(b, 400, 1.0) // uniform logging
	np := DeterministicPolicy[float64, int]{Choose: func(float64) int { return 2 }}
	est, err := MatchedRewardsView(mustView(t, tr), np)
	if err != nil {
		t.Fatal(err)
	}
	// Only ~1/3 of records match.
	if est.N < 80 || est.N > 200 {
		t.Fatalf("matched %d records, want ~133", est.N)
	}
	// Matched mean should approximate E[2x * ... ] with d=2: E[3c] = 1.5.
	if math.Abs(est.Value-1.5) > 0.15 {
		t.Fatalf("matched value %g, want ~1.5", est.Value)
	}
	// A new policy that picks a decision the old never logged.
	never := DeterministicPolicy[float64, int]{Choose: func(float64) int { return 9 }}
	if _, err := MatchedRewardsView(mustView(t, tr), never); !errors.Is(err, ErrNoMatches) {
		t.Fatal("expected ErrNoMatches")
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Value: 1, StdErr: 0.1, N: 10, ESS: 9.5}
	if e.String() == "" {
		t.Fatal("empty string")
	}
}

func TestDMDistributionValidation(t *testing.T) {
	tr := Trace[float64, int]{{Context: 0.5, Decision: 0, Reward: 1, Propensity: 1}}
	bad := FuncPolicy[float64, int](func(float64) []Weighted[int] {
		return []Weighted[int]{{Decision: 0, Prob: 0.4}} // sums to 0.4
	})
	if _, err := DirectMethodView(mustView(t, tr), bad, ConstantModel[float64, int]{}); err == nil {
		t.Fatal("DM should reject an improper distribution")
	}
	if _, err := DoublyRobustView(mustView(t, tr), bad, ConstantModel[float64, int]{}, DROptions{}); err == nil {
		t.Fatal("DR should reject an improper distribution")
	}
}
