package worldstate

import (
	"math"
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func TestTransitionApplyAndDegrade(t *testing.T) {
	tr := Transition{Slope: 2, Intercept: 1}
	if got := tr.Apply(3); got != 7 {
		t.Fatalf("Apply = %g, want 7", got)
	}
	// The paper's "degrade the performance in the trace by 20%".
	d := Transition{Slope: 0.8}
	if got := d.Apply(10); math.Abs(got-8) > 1e-12 {
		t.Fatalf("20%% degradation of 10 = %g, want 8", got)
	}
}

func TestTransformTrace(t *testing.T) {
	tr := core.Trace[int, int]{
		{Context: 1, Decision: 0, Reward: 10, Propensity: 0.5},
		{Context: 2, Decision: 1, Reward: 20, Propensity: 0.5},
	}
	out := TransformTrace(tr, Transition{Slope: 0.5})
	if out[0].Reward != 5 || out[1].Reward != 10 {
		t.Fatalf("transformed rewards %g, %g", out[0].Reward, out[1].Reward)
	}
	// Original untouched; other fields preserved.
	if tr[0].Reward != 10 || out[0].Propensity != 0.5 || out[1].Context != 2 {
		t.Fatal("TransformTrace mutated input or dropped fields")
	}
}

func TestFitPerGroup(t *testing.T) {
	src := []Sample{{"a", 2}, {"a", 4}, {"b", 10}} // means a=3, b=10
	tgt := []Sample{{"a", 1}, {"b", 8}, {"c", 99}} // c only in target
	trs, err := FitPerGroup(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 2 {
		t.Fatalf("fitted %d groups, want 2", len(trs))
	}
	if got := trs["a"].Apply(3); math.Abs(got-1) > 1e-12 {
		t.Fatalf("group a transform of 3 = %g, want 1", got)
	}
	if got := trs["b"].Apply(10); math.Abs(got-8) > 1e-12 {
		t.Fatalf("group b transform of 10 = %g, want 8", got)
	}
	if _, err := FitPerGroup(src, []Sample{{"zzz", 1}}); err == nil {
		t.Fatal("no common groups should fail")
	}
	if _, err := FitPerGroup(nil, tgt); err == nil {
		t.Fatal("empty source should fail")
	}
}

func TestTransformTraceGroupedSkips(t *testing.T) {
	tr := core.Trace[int, int]{
		{Context: 0, Decision: 0, Reward: 5, Propensity: 1},
		{Context: 0, Decision: 1, Reward: 5, Propensity: 1},
	}
	trs := GroupTransitions{"s0": {Slope: 1, Intercept: 2}}
	out, skipped := TransformTraceGrouped(tr, trs, ServerGroup)
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	if out[0].Reward != 7 || out[1].Reward != 5 {
		t.Fatalf("rewards %g, %g", out[0].Reward, out[1].Reward)
	}
}

func TestCalibrationFromTrace(t *testing.T) {
	tr := core.Trace[int, int]{{Context: 3, Decision: 1, Reward: 7, Propensity: 1}}
	samples := CalibrationFromTrace(tr, ServerGroup)
	if len(samples) != 1 || samples[0].Group != "s1" || samples[0].Reward != 7 {
		t.Fatalf("samples = %+v", samples)
	}
}

func initScenario(t *testing.T, seed int64) (*Scenario, *mathx.RNG) {
	t.Helper()
	s := DefaultScenario()
	rng := mathx.NewRNG(seed)
	if err := s.Init(rng); err != nil {
		t.Fatal(err)
	}
	return s, rng
}

func TestScenarioInitValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	bad := DefaultScenario()
	bad.Servers = bad.Servers[:1]
	bad.LoadWeights = bad.LoadWeights[:1]
	if err := bad.Init(rng); err == nil {
		t.Fatal("one server should fail")
	}
	bad = DefaultScenario()
	bad.LoadWeights = bad.LoadWeights[:2]
	if err := bad.Init(rng); err == nil {
		t.Fatal("weight/server mismatch should fail")
	}
	bad = DefaultScenario()
	bad.Epsilon = 1
	if err := bad.Init(rng); err == nil {
		t.Fatal("epsilon 1 should fail")
	}
	bad = DefaultScenario()
	bad.NumClasses = 0
	if err := bad.Init(rng); err == nil {
		t.Fatal("zero classes should fail")
	}
}

func TestPeakWorseThanMorning(t *testing.T) {
	s, _ := initScenario(t, 2)
	for v := range s.Servers {
		for c := 0; c < s.NumClasses; c++ {
			if s.TrueReward(c, v, PeakHour) >= s.TrueReward(c, v, MorningHour) {
				t.Fatalf("peak should be worse: class %d server %d", c, v)
			}
		}
	}
}

func TestUninitializedScenarioPanics(t *testing.T) {
	s := DefaultScenario()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.TrueReward(0, 0, MorningHour)
}

func TestCollectAndGroundTruth(t *testing.T) {
	s, rng := initScenario(t, 3)
	if _, err := s.Collect(0, MorningHour, rng); err == nil {
		t.Fatal("zero sessions should fail")
	}
	un := DefaultScenario()
	if _, err := un.Collect(5, MorningHour, rng); err == nil {
		t.Fatal("uninitialized should fail")
	}
	d, err := s.Collect(1000, MorningHour, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Logged mean reward should be near the old policy's morning truth.
	if diff := math.Abs(d.Trace.MeanReward() - d.GroundTruth(s.OldPolicy())); diff > 0.02 {
		t.Fatalf("logged mean vs truth differ by %g", diff)
	}
}

func TestStateCorrectionReducesError(t *testing.T) {
	// E4: evaluating the new policy's PEAK value from a MORNING trace is
	// biased; transforming the trace through a transition fitted on a
	// small peak calibration set removes most of the bias.
	var rawErrs, corrErrs []float64
	for run := 0; run < 15; run++ {
		s, rng := initScenario(t, int64(100+run))
		morning, err := s.Collect(2000, MorningHour, rng)
		if err != nil {
			t.Fatal(err)
		}
		peakCal, err := s.Collect(200, PeakHour, rng)
		if err != nil {
			t.Fatal(err)
		}
		np := s.NewPolicy()
		truth := core.TrueValue(morning.Contexts, np, func(c, v int) float64 {
			return s.TrueReward(c, v, PeakHour)
		})
		model := core.FitTable(morning.Trace, func(c, v int) string {
			return ServerGroup(c, v)
		})
		raw, err := core.DoublyRobustView(mustView(t, morning.Trace), np, model, core.DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		trans, err := FitPerGroup(
			CalibrationFromTrace(morning.Trace, ServerGroup),
			CalibrationFromTrace(peakCal.Trace, ServerGroup),
		)
		if err != nil {
			t.Fatal(err)
		}
		corrected, skipped := TransformTraceGrouped(morning.Trace, trans, ServerGroup)
		if skipped > 0 {
			t.Fatalf("%d records missing transitions", skipped)
		}
		cmodel := core.FitTable(corrected, func(c, v int) string { return ServerGroup(c, v) })
		corr, err := core.DoublyRobustView(mustView(t, corrected), np, cmodel, core.DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		rawErrs = append(rawErrs, mathx.RelativeError(truth, raw.Value))
		corrErrs = append(corrErrs, mathx.RelativeError(truth, corr.Value))
	}
	rawMean, corrMean := mathx.Mean(rawErrs), mathx.Mean(corrErrs)
	t.Logf("raw DR error %.4f, state-corrected DR error %.4f", rawMean, corrMean)
	if corrMean >= rawMean {
		t.Fatalf("state correction should reduce error: %g vs %g", corrMean, rawMean)
	}
}

func mustView(t *testing.T, tr core.Trace[int, int]) *core.TraceView[int, int] {
	t.Helper()
	v, err := core.NewTraceView(tr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
