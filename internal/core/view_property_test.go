package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"drnet/internal/mathx"
)

// Property: on ANY random valid trace, every view estimator agrees
// with the textbook per-record oracle (Values bit for bit, StdErr
// within 1e-9). This is the oracle contract as a property rather than
// a fixed fixture.
func TestViewSliceAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		v := mustView(t, tr)
		plain, clipped := oracle(tr, np, model, 0), oracle(tr, np, model, 2)
		dm, err1 := DirectMethodView(v, np, model)
		ips, err2 := IPSView(v, np, IPSOptions{})
		snips, err3 := IPSView(v, np, IPSOptions{Clip: 2, SelfNormalize: true})
		dr, err4 := DoublyRobustView(v, np, model, DROptions{})
		sndr, err5 := DoublyRobustView(v, np, model, DROptions{Clip: 2, SelfNormalize: true})
		diag, err6 := DiagnoseView(v, np)
		if errors.Join(err1, err2, err3, err4, err5, err6) != nil || diag != plain.Diag {
			return false
		}
		checkEstimate(t, "DM", dm, plain.DM, 0)
		checkEstimate(t, "IPS", ips, plain.IPS, 0)
		checkEstimate(t, "SNIPS clip", snips, clipped.SNIPS, 0)
		checkEstimate(t, "DR", dr, plain.DR, 0)
		checkEstimate(t, "SNDR clip", sndr, clipped.SNDR, 1e-12)
		matched, err := MatchedRewardsView(v, np)
		if plain.Matched.N == 0 {
			return errors.Is(err, ErrNoMatches)
		}
		checkEstimate(t, "Matched", matched, plain.Matched, 0)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: clipped SN-DR is affine-equivariant too: transforming
// rewards and model by r ↦ a·r + b transforms the estimate identically
// (weights do not depend on rewards, and b cancels in each residual).
func TestViewDRAffineEquivarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x5a5a)
		a := 0.5 + 2*rng.Float64()
		b := rng.Normal(0, 3)
		v, err := NewTraceView(tr)
		if err != nil {
			return false
		}
		base, err := DoublyRobustView(v, np, model, DROptions{Clip: 2, SelfNormalize: true})
		if err != nil {
			return false
		}
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		for i := range scaled {
			scaled[i].Reward = a*scaled[i].Reward + b
		}
		sv, err := NewTraceView(scaled)
		if err != nil {
			return false
		}
		scaledModel := RewardFunc[float64, int](func(x float64, d int) float64 {
			return a*model.Predict(x, d) + b
		})
		got, err := DoublyRobustView(sv, np, scaledModel, DROptions{Clip: 2, SelfNormalize: true})
		if err != nil {
			return false
		}
		want := a*base.Value + b
		return math.Abs(got.Value-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: clipped SNIPS is positively homogeneous in rewards, value
// and standard error alike.
func TestViewIPSHomogeneityProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, _ := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x1717)
		a := 0.25 + 3*rng.Float64()
		v, err := NewTraceView(tr)
		if err != nil {
			return false
		}
		opts := IPSOptions{Clip: 2, SelfNormalize: true}
		base, err := IPSView(v, np, opts)
		if err != nil {
			return false
		}
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		for i := range scaled {
			scaled[i].Reward = a * scaled[i].Reward
		}
		sv, err := NewTraceView(scaled)
		if err != nil {
			return false
		}
		got, err := IPSView(sv, np, opts)
		if err != nil {
			return false
		}
		want := a * base.Value
		return math.Abs(got.Value-want) < 1e-9*(1+math.Abs(want)) && closeRel(got.StdErr, a*base.StdErr, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: SN-DR is invariant to uniform propensity scaling: scaling
// every propensity by the same factor cancels in (n/Σw)·w.
func TestViewSNIPSScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		rng := mathx.NewRNG(seed ^ 0x2b2b)
		s := 0.3 + 0.7*rng.Float64() // keep scaled propensities in (0,1]
		v, err := NewTraceView(tr)
		if err != nil {
			return false
		}
		base, err := DoublyRobustView(v, np, model, DROptions{SelfNormalize: true})
		if err != nil {
			return false
		}
		scaled := make(Trace[float64, int], len(tr))
		copy(scaled, tr)
		for i := range scaled {
			scaled[i].Propensity = s * scaled[i].Propensity
		}
		sv, err := NewTraceView(scaled)
		if err != nil {
			return false
		}
		got, err := DoublyRobustView(sv, np, model, DROptions{SelfNormalize: true})
		if err != nil {
			return false
		}
		return math.Abs(got.Value-base.Value) < 1e-9*(1+math.Abs(base.Value))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every view estimate on a valid random trace is finite with
// 0 < ESS ≤ N, and MatchedRewardsView stays within the observed reward
// range when it succeeds.
func TestViewEstimatesFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, np, model := randomValidTrace(seed)
		v, err := NewTraceView(tr)
		if err != nil {
			return false
		}
		checks := []func() (Estimate, error){
			func() (Estimate, error) { return DirectMethodView(v, np, model) },
			func() (Estimate, error) { return IPSView(v, np, IPSOptions{}) },
			func() (Estimate, error) { return DoublyRobustView(v, np, model, DROptions{}) },
			func() (Estimate, error) { return SwitchDRView(v, np, model, SwitchOptions{}) },
		}
		for _, run := range checks {
			e, err := run()
			if err != nil {
				return false
			}
			if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
				return false
			}
			if !(e.ESS > 0) || e.ESS > float64(e.N)+1e-9 {
				return false
			}
		}
		if e, err := MatchedRewardsView(v, np); err == nil {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, rec := range tr {
				lo = math.Min(lo, rec.Reward)
				hi = math.Max(hi, rec.Reward)
			}
			if e.Value < lo-1e-12 || e.Value > hi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: interning round-trips — At reproduces the trace record for
// record, and dictionary sizes never exceed the trace length.
func TestViewMaterializeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, _, _ := randomValidTrace(seed)
		v, err := NewTraceView(tr)
		if err != nil {
			return false
		}
		if v.Len() != len(tr) || v.NumContexts() > len(tr) || v.NumDecisions() > len(tr) {
			return false
		}
		for i := range tr {
			if v.At(i) != tr[i] {
				return false
			}
		}
		if v.MeanReward() != tr.MeanReward() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
