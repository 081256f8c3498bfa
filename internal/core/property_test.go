package core

import (
	"math"
	"testing"
	"testing/quick"

	"drnet/internal/mathx"
)

// randomValidTrace builds an arbitrary valid trace plus matching
// policies for property tests.
func randomValidTrace(seed int64) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]) {
	rng := mathx.NewRNG(seed)
	n := 20 + rng.Intn(200)
	numD := 2 + rng.Intn(4)
	decisions := make([]int, numD)
	for i := range decisions {
		decisions[i] = i
	}
	oldEps := 0.2 + 0.8*rng.Float64()
	old := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: decisions,
		Epsilon:   oldEps,
	}
	newEps := 0.1 + 0.9*rng.Float64()
	np := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return numD - 1 },
		Decisions: decisions,
		Epsilon:   newEps,
	}
	slope := rng.Normal(0, 2)
	trueReward := func(x float64, d int) float64 { return slope * x * float64(d+1) }
	ctxs := make([]float64, n)
	for i := range ctxs {
		ctxs[i] = rng.Float64()
	}
	tr := CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return trueReward(x, d) + rng.Normal(0, 0.5)
	}, rng)
	offset := rng.Normal(0, 0.3) // fixed model bias, deterministic per trace
	model := RewardFunc[float64, int](func(x float64, d int) float64 {
		return trueReward(x, d) + offset
	})
	return tr, np, model
}

// Property: DR is affine-equivariant — transforming every reward and
// the model by r ↦ a·r + b transforms the estimate identically.
func TestDRAffineEquivarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x5a5a)
		a := 0.5 + 2*rng.Float64()
		b := rng.Normal(0, 3)
		base, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{})
		if err != nil {
			return false
		}
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		for i := range scaled {
			scaled[i].Reward = a*scaled[i].Reward + b
		}
		scaledModel := RewardFunc[float64, int](func(x float64, d int) float64 {
			return a*model.Predict(x, d) + b
		})
		got, err := DoublyRobustView(mustView(t, scaled), np, scaledModel, DROptions{})
		if err != nil {
			return false
		}
		// DM part transforms exactly; the correction term scales by a
		// (the b offsets cancel in the residual), so the whole estimate
		// is a·v + b.
		want := a*base.Value + b
		return math.Abs(got.Value-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: IPS is positively homogeneous in rewards.
func TestIPSHomogeneityProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x1234)
		a := 0.1 + 3*rng.Float64()
		base, err := IPSView(mustView(t, tr), np, IPSOptions{})
		if err != nil {
			return false
		}
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		for i := range scaled {
			scaled[i].Reward *= a
		}
		got, err := IPSView(mustView(t, scaled), np, IPSOptions{})
		if err != nil {
			return false
		}
		return math.Abs(got.Value-a*base.Value) < 1e-9*(1+math.Abs(a*base.Value))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: all estimators return finite values with ESS in (0, n] on
// arbitrary valid traces.
func TestEstimatorsFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		n := float64(len(tr))
		check := func(e Estimate, err error) bool {
			if err != nil {
				return false
			}
			if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
				return false
			}
			if math.IsNaN(e.StdErr) || e.StdErr < 0 {
				return false
			}
			return e.ESS >= 0 && e.ESS <= n+1e-6
		}
		dm, err := DirectMethodView(mustView(t, tr), np, model)
		if !check(dm, err) {
			return false
		}
		ips, err := IPSView(mustView(t, tr), np, IPSOptions{})
		if !check(ips, err) {
			return false
		}
		dr, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{})
		if !check(dr, err) {
			return false
		}
		sw, err := SwitchDRView(mustView(t, tr), np, model, SwitchOptions{})
		return check(sw, err)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatchedRewards always returns a value within the range of
// logged rewards (it is an average of a subset).
func TestMatchedRewardsRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		est, err := MatchedRewardsView(mustView(t, tr), np)
		if err != nil {
			// No matches is acceptable for a property run.
			return err == ErrNoMatches
		}
		min, max := mathx.MinMax(rewardsOf(tr))
		return est.Value >= min-1e-12 && est.Value <= max+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SNIPS is invariant to rescaling all propensities by a
// common factor (the scale cancels in the ratio of sums), while plain
// IPS is not.
func TestSNIPSScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x777)
		k := 1.2 + rng.Float64() // scale propensities UP (stay <= 1 after clamp guard)
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		ok := true
		for i := range scaled {
			p := scaled[i].Propensity / k // scaling down keeps p in (0,1]
			if p <= 0 {
				ok = false
				break
			}
			scaled[i].Propensity = p
		}
		if !ok {
			return true
		}
		a, err := IPSView(mustView(t, tr), np, IPSOptions{SelfNormalize: true})
		if err != nil {
			return false
		}
		b, err := IPSView(mustView(t, scaled), np, IPSOptions{SelfNormalize: true})
		if err != nil {
			return false
		}
		return math.Abs(a.Value-b.Value) < 1e-9*(1+math.Abs(a.Value))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stream fed record by record reads exactly the batch DR
// on arbitrary valid traces.
func TestStreamingMatchesBatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		got, _, err := streamDR(tr, np, model)
		if err != nil {
			return false
		}
		want, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{})
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
