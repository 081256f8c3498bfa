package biasobs

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"drnet/internal/changepoint"
	"drnet/internal/core"
	"drnet/internal/mathx"
)

// stationaryTrace builds a drift-free trace: contexts cycle over numCtx
// values, decisions alternate a/b logged with propensity 0.5 (so a
// uniform target policy gives every record weight 1), and rewards are
// mean + N(0, noise).
func stationaryTrace(n, numCtx int, mean, noise float64, seed int64) core.Trace[int, string] {
	rng := mathx.NewRNG(seed)
	t := make(core.Trace[int, string], n)
	for i := range t {
		d := "a"
		if i%2 == 1 {
			d = "b"
		}
		t[i] = core.Record[int, string]{
			Context:    i % numCtx,
			Decision:   d,
			Reward:     mean + rng.Normal(0, noise),
			Propensity: 0.5,
		}
	}
	return t
}

func uniformAB() core.Policy[int, string] {
	return core.UniformPolicy[int, string]{Decisions: []string{"a", "b"}}
}

func mustView(t *testing.T, tr core.Trace[int, string]) *core.TraceView[int, string] {
	t.Helper()
	v, err := core.NewTraceView(tr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestComputeStationaryIsHealthyAndSilent(t *testing.T) {
	v := mustView(t, stationaryTrace(2000, 4, 0.5, 0.05, 1))
	r, err := Compute(v, uniformAB(), Config{Windows: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alarms) != 0 {
		t.Fatalf("false drift alarms on stationary trace: %+v", r.Alarms)
	}
	if r.Grade != GradeHealthy {
		t.Fatalf("grade = %q, want %q", r.Grade, GradeHealthy)
	}
	if len(r.Windows) != 20 {
		t.Fatalf("got %d windows, want 20", len(r.Windows))
	}
	for _, w := range r.Windows {
		if w.N != 100 {
			t.Fatalf("window %d has %d records, want 100", w.Index, w.N)
		}
		// Weight 1 everywhere: ESS ratio 1, no zero support, mean weight 1.
		if math.Abs(w.ESSRatio-1) > 1e-12 || w.ZeroSupportFrac != 0 || math.Abs(w.MeanWeight-1) > 1e-12 {
			t.Fatalf("window %d stats off for unit weights: %+v", w.Index, w)
		}
		if w.CoverageEntropy < 0.99 || w.CoverageEntropy > 1+1e-12 {
			t.Fatalf("window %d coverage entropy %g, want ~1 for cycling contexts", w.Index, w.CoverageEntropy)
		}
	}
}

func TestComputeFiresExactlyAtInjectedChangepoint(t *testing.T) {
	// Reward steps from 0.2 to 0.9 at record 1000 of 2000 — window 10 of
	// 20. The alarm must land exactly there, on the reward series only.
	tr := stationaryTrace(2000, 4, 0.2, 0.01, 7)
	rng := mathx.NewRNG(8)
	for i := 1000; i < 2000; i++ {
		tr[i].Reward = 0.9 + rng.Normal(0, 0.01)
	}
	v := mustView(t, tr)
	r, err := Compute(v, uniformAB(), Config{Windows: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alarms) == 0 {
		t.Fatal("no alarm on a huge injected reward step")
	}
	first := r.Alarms[0]
	if first.Series != SeriesRewardMean || first.Window != 10 {
		t.Fatalf("first alarm = %+v, want reward_mean at window 10", first)
	}
	if first.Direction != "up" {
		t.Fatalf("direction = %q, want up", first.Direction)
	}
	for _, a := range r.Alarms {
		if a.Series == SeriesESSRatio {
			t.Fatalf("spurious ESS alarm on constant-weight trace: %+v", a)
		}
	}
	if r.Grade != GradeDrift {
		t.Fatalf("grade = %q, want %q", r.Grade, GradeDrift)
	}
}

func TestComputeDeterministicAcrossWorkers(t *testing.T) {
	tr := stationaryTrace(3000, 5, 0.4, 0.02, 3)
	rng := mathx.NewRNG(4)
	for i := 1500; i < 3000; i++ {
		tr[i].Reward = 1.1 + rng.Normal(0, 0.02)
	}
	v := mustView(t, tr)
	var base *Report
	for _, workers := range []int{1, 2, 8} {
		r, err := Compute(v, uniformAB(), Config{Windows: 24, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = r
			continue
		}
		if !reflect.DeepEqual(base, r) {
			t.Fatalf("report at workers=%d differs from workers=1", workers)
		}
	}
	if len(base.Alarms) == 0 {
		t.Fatal("drift trace produced no alarms")
	}
}

func TestComputeZeroSupportGradesWatch(t *testing.T) {
	// Target policy always plays "a", but three quarters of the log is
	// "b": those records get weight zero, which must push the grade to
	// watch (no drift — the imbalance is stationary).
	rng := mathx.NewRNG(5)
	tr := make(core.Trace[int, string], 900)
	for i := range tr {
		d := "b"
		if i%4 == 0 {
			d = "a"
		}
		tr[i] = core.Record[int, string]{
			Context:    i % 3,
			Decision:   d,
			Reward:     0.5 + rng.Normal(0, 0.01),
			Propensity: 0.25,
		}
	}
	v := mustView(t, tr)
	pol := core.DeterministicPolicy[int, string]{Choose: func(int) string { return "a" }}
	r, err := Compute(v, pol, Config{Windows: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Alarms) != 0 {
		t.Fatalf("unexpected alarms: %+v", r.Alarms)
	}
	if r.Grade != GradeWatch {
		t.Fatalf("grade = %q, want %q", r.Grade, GradeWatch)
	}
	for _, w := range r.Windows {
		if math.Abs(w.ZeroSupportFrac-0.75) > 1e-12 {
			t.Fatalf("window %d zero-support %g, want 3/4", w.Index, w.ZeroSupportFrac)
		}
	}
}

func TestSingleWindowMatchesDiagnose(t *testing.T) {
	// With one window the observatory's overlap stats must agree with
	// core.DiagnoseView bit for bit (same accumulation order).
	tr := stationaryTrace(500, 3, 0.6, 0.1, 9)
	// Make the weights non-trivial: epsilon-greedy target.
	pol := core.EpsilonGreedyPolicy[int, string]{
		Base:      func(c int) string { return "a" },
		Decisions: []string{"a", "b"},
		Epsilon:   0.2,
	}
	v := mustView(t, tr)
	r, err := Compute(v, pol, Config{Windows: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.DiagnoseView(v, pol)
	if err != nil {
		t.Fatal(err)
	}
	w := r.Windows[0]
	if w.N != d.N {
		t.Fatalf("n = %d, want %d", w.N, d.N)
	}
	if got, want := w.ESSRatio, d.ESS/float64(d.N); got != want {
		t.Fatalf("essRatio = %g, want %g", got, want)
	}
	if w.MeanWeight != d.MeanWeight {
		t.Fatalf("meanWeight = %g, want %g", w.MeanWeight, d.MeanWeight)
	}
	if w.MaxWeight != d.MaxWeight {
		t.Fatalf("maxWeight = %g, want %g", w.MaxWeight, d.MaxWeight)
	}
	if got, want := w.ZeroSupportFrac, float64(d.ZeroSupport)/float64(d.N); got != want {
		t.Fatalf("zeroSupportFrac = %g, want %g", got, want)
	}
	if w.MinPropensity != d.MinPropensity {
		t.Fatalf("minPropensity = %g, want %g", w.MinPropensity, d.MinPropensity)
	}
}

func TestCalibrationDetectsMisstatedPropensities(t *testing.T) {
	// Every record claims propensity 0.8 but decisions are split 50/50
	// within one context: the [0.8, 0.9) bucket must show a -0.3 gap.
	tr := make(core.Trace[int, string], 100)
	for i := range tr {
		d := "a"
		if i%2 == 1 {
			d = "b"
		}
		tr[i] = core.Record[int, string]{Context: 0, Decision: d, Reward: 1, Propensity: 0.8}
	}
	v := mustView(t, tr)
	r, err := Compute(v, uniformAB(), Config{Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	var hit *CalibrationBucket
	for i := range r.Calibration {
		if r.Calibration[i].N > 0 {
			if hit != nil {
				t.Fatalf("records spread over multiple buckets: %+v", r.Calibration)
			}
			hit = &r.Calibration[i]
		}
	}
	if hit == nil {
		t.Fatal("no populated calibration bucket")
	}
	if hit.Lo != 0.8 || hit.N != 100 {
		t.Fatalf("bucket = %+v, want all 100 records in [0.8, 0.9)", hit)
	}
	if math.Abs(hit.MeanPropensity-0.8) > 1e-12 || math.Abs(hit.EmpiricalRate-0.5) > 1e-12 {
		t.Fatalf("bucket means = %+v, want logged 0.8 / empirical 0.5", hit)
	}
	if math.Abs(hit.Gap+0.3) > 1e-12 {
		t.Fatalf("gap = %g, want -0.3", hit.Gap)
	}
}

// TestReportEchoesFixedSettings pins the settings Config does not
// expose: the warmup is max(2, windows/4) of the windows actually cut,
// the CUSUM slack is changepoint.DefaultKappa and the calibration
// table has DefaultBuckets buckets, and a zero Config gets the default
// threshold and clip.
func TestReportEchoesFixedSettings(t *testing.T) {
	for _, tc := range []struct{ n, windows, wantWindows, wantWarmup int }{
		{2000, 0, DefaultWindows, 2},
		{2000, 20, 20, 5},
		{2000, 4, 4, 2},
		{3, 20, 3, 2},
	} {
		r, err := Compute(mustView(t, stationaryTrace(tc.n, 4, 0.5, 0.05, 1)), uniformAB(), Config{Windows: tc.windows})
		if err != nil {
			t.Fatal(err)
		}
		if r.WindowCount != tc.wantWindows || r.Warmup != tc.wantWarmup {
			t.Errorf("n=%d windows=%d: got %d windows, warmup %d; want %d, %d", tc.n, tc.windows, r.WindowCount, r.Warmup, tc.wantWindows, tc.wantWarmup)
		}
		if r.Kappa != changepoint.DefaultKappa || r.DriftThreshold != changepoint.DefaultThreshold || r.Clip != DefaultClip {
			t.Errorf("n=%d windows=%d: kappa %g, threshold %g, clip %g; want the defaults", tc.n, tc.windows, r.Kappa, r.DriftThreshold, r.Clip)
		}
		if len(r.Calibration) != DefaultBuckets {
			t.Errorf("n=%d windows=%d: %d calibration buckets, want %d", tc.n, tc.windows, len(r.Calibration), DefaultBuckets)
		}
	}
}

func TestComputeEmptyViewFails(t *testing.T) {
	v := mustView(t, core.Trace[int, string]{})
	if _, err := Compute(v, uniformAB(), Config{}); !errors.Is(err, core.ErrEmptyTrace) {
		t.Fatalf("err = %v, want ErrEmptyTrace", err)
	}
}

func TestComputeRejectsInvalidDistribution(t *testing.T) {
	v := mustView(t, stationaryTrace(50, 2, 0.5, 0.01, 2))
	bad := core.FuncPolicy[int, string](func(int) []core.Weighted[string] {
		return []core.Weighted[string]{{Decision: "a", Prob: 0.4}} // sums to 0.4
	})
	if _, err := Compute(v, bad, Config{}); err == nil {
		t.Fatal("invalid distribution accepted")
	}
}

func TestComputeCancellation(t *testing.T) {
	v := mustView(t, stationaryTrace(20000, 4, 0.5, 0.05, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeCtx(ctx, v, uniformAB(), Config{Windows: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestComputeAllocationsDoNotScaleWithRecords(t *testing.T) {
	// The per-record loops must be allocation-free: quadrupling the
	// trace (same contexts/decisions/windows) must not grow the report's
	// allocation count beyond incidental slack.
	pol := uniformAB()
	small := mustView(t, stationaryTrace(1000, 4, 0.5, 0.05, 11))
	large := mustView(t, stationaryTrace(4000, 4, 0.5, 0.05, 11))
	cfg := Config{Windows: 10, Workers: 1}
	measure := func(v *core.TraceView[int, string]) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Compute(v, pol, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a4 := measure(small), measure(large)
	if a4 > a1+64 {
		t.Fatalf("allocations scale with records: %v for n=1000 vs %v for n=4000", a1, a4)
	}
}

func TestSummaryAndRender(t *testing.T) {
	tr := stationaryTrace(2000, 4, 0.2, 0.01, 7)
	rng := mathx.NewRNG(8)
	for i := 1000; i < 2000; i++ {
		tr[i].Reward = 0.9 + rng.Normal(0, 0.01)
	}
	v := mustView(t, tr)
	r, err := Compute(v, uniformAB(), Config{Windows: 20})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary()
	if s.Grade != GradeDrift || s.Windows != 20 || s.Alarms != len(r.Alarms) {
		t.Fatalf("summary = %+v inconsistent with report", s)
	}
	if math.Abs(s.MinESSRatio-1) > 1e-12 {
		t.Fatalf("minEssRatio = %g, want 1 for unit weights", s.MinESSRatio)
	}
	if s.LastRewardMean < 0.8 {
		t.Fatalf("lastRewardMean = %g, want post-shift level", s.LastRewardMean)
	}
	out := r.Render()
	for _, want := range []string{"bias observatory", "grade=drift", "drift: reward_mean up at window 10", "propensity calibration"} {
		if !contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
