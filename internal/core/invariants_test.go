package core

import (
	"math"
	"testing"
	"testing/quick"

	"drnet/internal/mathx"
)

// memorizingModel predicts the logged reward exactly for every
// (context, decision) pair that appears in the trace and falls back to
// fallback elsewhere. With it, every DR residual is exactly zero.
func memorizingModel(tr Trace[float64, int], fallback func(float64, int) float64) RewardModel[float64, int] {
	type key struct {
		x float64
		d int
	}
	table := make(map[key]float64, len(tr))
	for _, rec := range tr {
		table[key{rec.Context, rec.Decision}] = rec.Reward
	}
	return RewardFunc[float64, int](func(x float64, d int) float64 {
		if r, ok := table[key{x, d}]; ok {
			return r
		}
		return fallback(x, d)
	})
}

// Property: when the reward model reproduces every logged reward
// exactly (all residuals zero), DR collapses to DM bit-for-bit — the
// importance-weighted correction vanishes term by term.
func TestDRCollapsesToDMWhenResidualsZeroProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, base := randomValidTrace(seed)
		model := memorizingModel(tr, base.Predict)
		dm, err := DirectMethodView(mustView(t, tr), np, model)
		if err != nil {
			return false
		}
		for _, selfNorm := range []bool{false, true} {
			dr, err := DoublyRobustView(mustView(t, tr), np, model, DROptions{SelfNormalize: selfNorm})
			if err != nil {
				return false
			}
			if dr.Value != dm.Value || dr.StdErr != dm.StdErr || dr.N != dm.N {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: when the reward model predicts identically zero, DR's DM
// part vanishes and its contributions equal IPS's w·r exactly, so the
// two estimators agree bit-for-bit.
func TestDRCollapsesToIPSWhenModelZeroProperty(t *testing.T) {
	zero := RewardFunc[float64, int](func(float64, int) float64 { return 0 })
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		ips, err := IPSView(mustView(t, tr), np, IPSOptions{})
		if err != nil {
			return false
		}
		dr, err := DoublyRobustView(mustView(t, tr), np, zero, DROptions{})
		if err != nil {
			return false
		}
		return dr.Value == ips.Value && dr.StdErr == ips.StdErr && dr.ESS == ips.ESS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: plain IPS (no clipping, no self-normalization) equals the
// hand-computed mean of wᵢ·rᵢ with wᵢ = µ_new(dᵢ|cᵢ)/µ_old(dᵢ|cᵢ).
func TestIPSEqualsHandComputedWeightedMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		got, err := IPSView(mustView(t, tr), np, IPSOptions{})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, rec := range tr {
			sum += Prob(np, rec.Context, rec.Decision) / rec.Propensity * rec.Reward
		}
		want := sum / float64(len(tr))
		return math.Abs(got.Value-want) <= 1e-12*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Kish's effective sample size never exceeds the trace
// length, for every estimator and option combination.
func TestESSNeverExceedsNProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		n := float64(len(tr))
		ests := []func() (Estimate, error){
			func() (Estimate, error) { return DirectMethodView(mustView(t, tr), np, model) },
			func() (Estimate, error) { return IPSView(mustView(t, tr), np, IPSOptions{}) },
			func() (Estimate, error) { return IPSView(mustView(t, tr), np, IPSOptions{Clip: 2}) },
			func() (Estimate, error) { return IPSView(mustView(t, tr), np, IPSOptions{SelfNormalize: true}) },
			func() (Estimate, error) { return DoublyRobustView(mustView(t, tr), np, model, DROptions{}) },
			func() (Estimate, error) {
				return DoublyRobustView(mustView(t, tr), np, model, DROptions{Clip: 2, SelfNormalize: true})
			},
		}
		for _, est := range ests {
			e, err := est()
			if err != nil {
				return false
			}
			if e.ESS < 0 || e.ESS > n*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: clipping weights can only lower both the maximum weight and
// the spread of IPS contributions, never raise ESS above n.
func TestClippingBoundsMaxWeightProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		clip := 1.5
		clipped, err := IPSView(mustView(t, tr), np, IPSOptions{Clip: clip})
		if err != nil {
			return false
		}
		plain, err := IPSView(mustView(t, tr), np, IPSOptions{})
		if err != nil {
			return false
		}
		return clipped.MaxWeight <= clip+1e-12 && clipped.MaxWeight <= plain.MaxWeight+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Sanity anchor for the hand-computed-mean property on a fixed tiny
// trace where the expected value is computable by hand:
// two records, weights 0.5/0.5=1 and 0.9/0.3=3, rewards 2 and 1 →
// (1·2 + 3·1)/2 = 2.5.
func TestIPSHandExample(t *testing.T) {
	np := FuncPolicy[float64, int](func(x float64) []Weighted[int] {
		if x == 0 {
			return []Weighted[int]{{Decision: 0, Prob: 0.5}, {Decision: 1, Prob: 0.5}}
		}
		return []Weighted[int]{{Decision: 0, Prob: 0.1}, {Decision: 1, Prob: 0.9}}
	})
	tr := Trace[float64, int]{
		{Context: 0, Decision: 0, Reward: 2, Propensity: 0.5},
		{Context: 1, Decision: 1, Reward: 1, Propensity: 0.3},
	}
	got, err := IPSView(mustView(t, tr), np, IPSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Value-2.5) > 1e-12 {
		t.Fatalf("IPS = %g, want 2.5", got.Value)
	}
	if math.Abs(got.MaxWeight-3) > 1e-12 {
		t.Fatalf("MaxWeight = %g, want 3", got.MaxWeight)
	}
	if want := mathx.EffectiveSampleSize([]float64{1, 3}); got.ESS != want {
		t.Fatalf("ESS = %g, want %g", got.ESS, want)
	}
}
