package core

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"drnet/internal/mathx"
	"drnet/internal/parallel"
)

// mustView interns tr by value, failing the test on an invalid record.
func mustView[C comparable, D comparable](tb testing.TB, tr Trace[C, D]) *TraceView[C, D] {
	tb.Helper()
	v, err := NewTraceView(tr)
	if err != nil {
		tb.Fatalf("NewTraceView: %v", err)
	}
	return v
}

// closeRel reports whether a and b agree within tol relative to the
// larger magnitude (equal values, zeros included, always agree).
func closeRel(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkEstimate compares got with the oracle: Value, N, ESS and
// MaxWeight exactly (Value within valueTol when it is non-zero, for
// SN-DR's regrouped sum), StdErr within 1e-9 relative — the fold sums
// squares around a shift, the oracle in two passes.
func checkEstimate(t *testing.T, name string, got, want Estimate, valueTol float64) {
	t.Helper()
	if got.N != want.N || got.ESS != want.ESS || got.MaxWeight != want.MaxWeight || !closeRel(got.Value, want.Value, valueTol) {
		t.Fatalf("%s: %+v, oracle %+v", name, got, want)
	}
	if !closeRel(got.StdErr, want.StdErr, 1e-9) {
		t.Fatalf("%s: StdErr %.17g, oracle %.17g", name, got.StdErr, want.StdErr)
	}
}

// quantizedTrace is determinismTrace with contexts snapped to a small
// grid, so interning actually collapses records (U ≪ n) and the
// per-context tables are shared by many records.
func quantizedTrace(n int) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]) {
	tr, np, model := determinismTrace(n)
	out := make(Trace[float64, int], len(tr))
	copy(out, tr)
	for i := range out {
		out[i].Context = float64(int(out[i].Context*16)) / 16
	}
	return out, np, model
}

// equivalenceCases are the trace shapes the oracle tests sweep:
// near-unique contexts (dictionary ≈ n) and heavily shared contexts
// (dictionary ≪ n).
var equivalenceCases = map[string]func(int) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]){
	"unique":    determinismTrace,
	"quantized": quantizedTrace,
}

// TestViewEstimatorsBitIdenticalToSlice is the core contract: every
// estimator over a view returns the textbook per-record result — the
// same Value bit for bit, StdErr within 1e-9 — at worker counts 1, 2
// and 8.
func TestViewEstimatorsBitIdenticalToSlice(t *testing.T) {
	const n = 5000
	for shape, mk := range equivalenceCases {
		tr, np, model := mk(n)
		v := mustView(t, tr)
		plain, clipped := oracle(tr, np, model, 0), oracle(tr, np, model, 3)
		cases := []struct {
			name     string
			valueTol float64
			want     Estimate
			view     func() (Estimate, error)
		}{
			{"DM", 0, plain.DM, func() (Estimate, error) { return DirectMethodView(v, np, model) }},
			{"IPS", 0, plain.IPS, func() (Estimate, error) { return IPSView(v, np, IPSOptions{}) }},
			{"IPS clip", 0, clipped.IPS, func() (Estimate, error) { return IPSView(v, np, IPSOptions{Clip: 3}) }},
			{"SNIPS", 0, plain.SNIPS, func() (Estimate, error) { return IPSView(v, np, IPSOptions{SelfNormalize: true}) }},
			{"DR", 0, plain.DR, func() (Estimate, error) { return DoublyRobustView(v, np, model, DROptions{}) }},
			{"DR clip+norm", 1e-12, clipped.SNDR, func() (Estimate, error) {
				return DoublyRobustView(v, np, model, DROptions{Clip: 3, SelfNormalize: true})
			}},
			{"MatchedRewards", 0, plain.Matched, func() (Estimate, error) { return MatchedRewardsView(v, np) }},
		}
		for _, c := range cases {
			for _, w := range workerCounts {
				withParallelism(t, w, func() {
					got, err := c.view()
					if err != nil {
						t.Fatalf("%s/%s workers=%d: %v", shape, c.name, w, err)
					}
					checkEstimate(t, shape+"/"+c.name, got, c.want, c.valueTol)
				})
			}
		}
	}
}

// TestViewDiagnoseBitIdentical asserts DiagnoseView reproduces the
// textbook diagnostics field for field on both trace shapes.
func TestViewDiagnoseBitIdentical(t *testing.T) {
	for shape, mk := range equivalenceCases {
		tr, np, model := mk(5000)
		got, err := DiagnoseView(mustView(t, tr), np)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if want := oracle(tr, np, model, 0).Diag; got != want {
			t.Fatalf("%s: DiagnoseView %+v != oracle %+v", shape, got, want)
		}
	}
}

// TestFitTableViewMatchesFitTable asserts the columnar table model is
// the map-based table model: same predictions on every logged pair,
// same default, and the same DM/DR estimates when plugged in.
func TestFitTableViewMatchesFitTable(t *testing.T) {
	tr, np, _ := quantizedTrace(3000)
	v := mustView(t, tr)
	key := func(c float64, d int) string {
		return strconv.FormatFloat(c, 'g', -1, 64) + "|" + strconv.Itoa(d)
	}
	mapModel := FitTable(tr, key)
	viewModel := FitTableView(v)
	for i, rec := range tr {
		if got, want := viewModel.Predict(rec.Context, rec.Decision), mapModel.Predict(rec.Context, rec.Decision); got != want {
			t.Fatalf("record %d: view predict %v != map predict %v", i, got, want)
		}
	}
	if got, want := viewModel.Predict(-123.5, 0), mapModel.Predict(-123.5, 0); got != want {
		t.Fatalf("default: view %v != map %v", got, want)
	}
	for _, opts := range []DROptions{{}, {Clip: 5}} {
		want := oracle(tr, np, mapModel, opts.Clip)
		for name, m := range map[string]RewardModel[float64, int]{"map": mapModel, "view": viewModel} {
			dm, err := DirectMethodView(v, np, m)
			if err != nil {
				t.Fatal(err)
			}
			checkEstimate(t, name+" DM", dm, want.DM, 0)
			dr, err := DoublyRobustView(v, np, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkEstimate(t, name+" DR", dr, want.DR, 0)
		}
	}
}

// TestCrossFitDRViewBitIdentical asserts CrossFitDRView pools, fold by
// fold, the textbook DR over each fold's records with a model fit on
// the other folds.
func TestCrossFitDRViewBitIdentical(t *testing.T) {
	tr, np, _ := quantizedTrace(3000)
	v := mustView(t, tr)
	fit := func(part Trace[float64, int]) (RewardModel[float64, int], error) {
		return FitTable(part, func(c float64, d int) string {
			return strconv.FormatFloat(c, 'g', -1, 64) + "|" + strconv.Itoa(d)
		}), nil
	}
	for _, folds := range []int{2, 3} {
		var total, se2, essSum, maxW float64
		for f := 0; f < folds; f++ {
			var fitPart, evalPart Trace[float64, int]
			for i, rec := range tr {
				if i%folds == f {
					evalPart = append(evalPart, rec)
				} else {
					fitPart = append(fitPart, rec)
				}
			}
			m, _ := fit(fitPart)
			est := oracle(evalPart, np, m, 4).DR
			w := float64(est.N)
			total, se2, essSum = total+est.Value*w, se2+est.StdErr*est.StdErr*w*w, essSum+est.ESS
			maxW = math.Max(maxW, est.MaxWeight)
		}
		want := Estimate{Value: total / float64(len(tr)), StdErr: math.Sqrt(se2) / float64(len(tr)), N: len(tr), ESS: essSum, MaxWeight: maxW}
		for _, w := range workerCounts {
			withParallelism(t, w, func() {
				got, err := CrossFitDRView(v, np, fit, folds, DROptions{Clip: 4})
				if err != nil {
					t.Fatalf("folds=%d workers=%d: %v", folds, w, err)
				}
				checkEstimate(t, "CrossFitDRView folds="+strconv.Itoa(folds), got, want, 0)
			})
		}
	}
}

// firstInvalid is the per-record scan's verdict: the first record whose
// context's distribution is invalid, and the error.
func firstInvalid[C any, D comparable](tr Trace[C, D], p Policy[C, D]) (int, error) {
	for i, rec := range tr {
		if err := ValidateDistribution(p.Distribution(rec.Context)); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// TestViewEstimatorErrorsMatchSlice asserts DM, DR and SwitchDR refuse
// an invalid policy with the per-record scan's first failing record,
// while IPS and Diagnose — which read only probabilities — answer.
func TestViewEstimatorErrorsMatchSlice(t *testing.T) {
	tr, _, model := determinismTrace(2000)
	v := mustView(t, tr)
	bad := FuncPolicy[float64, int](func(x float64) []Weighted[int] {
		if x > 0.5 {
			return []Weighted[int]{{Decision: 0, Prob: 0.7}, {Decision: 1, Prob: 0.7}}
		}
		return []Weighted[int]{{Decision: 0, Prob: 1}, {Decision: 1, Prob: 0}, {Decision: 2, Prob: 0}}
	})
	i, cause := firstInvalid(tr, bad)
	want := "record " + strconv.Itoa(i) + ": " + cause.Error()
	for _, w := range workerCounts {
		withParallelism(t, w, func() {
			if _, err := DirectMethodView(v, bad, model); err == nil || err.Error() != want {
				t.Fatalf("DM workers=%d: %v, want %s", w, err, want)
			}
			if _, err := DoublyRobustView(v, bad, model, DROptions{}); err == nil || err.Error() != want {
				t.Fatalf("DR workers=%d: %v, want %s", w, err, want)
			}
			if _, err := SwitchDRView(v, bad, model, SwitchOptions{}); err == nil || err.Error() != cause.Error() {
				t.Fatalf("SwitchDR workers=%d: %v, want %v", w, err, cause)
			}
			if _, err := IPSView(v, bad, IPSOptions{}); err != nil {
				t.Fatalf("IPS workers=%d: %v", w, err)
			}
			if _, err := DiagnoseView(v, bad); err != nil {
				t.Fatalf("Diagnose workers=%d: %v", w, err)
			}
		})
	}
	empty := mustView(t, Trace[float64, int]{})
	for name, err := range map[string]error{
		"DM":        func() error { _, err := DirectMethodView(empty, bad, model); return err }(),
		"IPS":       func() error { _, err := IPSView(empty, bad, IPSOptions{}); return err }(),
		"DR":        func() error { _, err := DoublyRobustView(empty, bad, model, DROptions{}); return err }(),
		"Matched":   func() error { _, err := MatchedRewardsView(empty, bad); return err }(),
		"Diagnose":  func() error { _, err := DiagnoseView(empty, bad); return err }(),
		"SwitchDR":  func() error { _, err := SwitchDRView(empty, bad, model, SwitchOptions{}); return err }(),
		"Bootstrap": func() error { _, err := BootstrapDRViewSeeded(empty, bad, DROptions{}, 1, 10, 0.9); return err }(),
	} {
		if !errors.Is(err, ErrEmptyTrace) {
			t.Fatalf("%s on an empty view: %v, want ErrEmptyTrace", name, err)
		}
	}
}

// refitBootstrap is the textbook refit-DR bootstrap BootstrapDRViewSeeded
// implements: resample i draws n records from shard i, fits FitTable on
// them and takes the textbook DR.
func refitBootstrap(tr Trace[float64, int], np Policy[float64, int], opts DROptions, seed int64, b int, level float64) Interval {
	key := func(c float64, d int) string { return strconv.FormatFloat(c, 'g', -1, 64) + "|" + strconv.Itoa(d) }
	sh := parallel.NewShardedRNG(seed)
	values := make([]float64, b)
	for i := range values {
		rng, rs := sh.Shard(i), make(Trace[float64, int], len(tr))
		for j := range rs {
			rs[j] = tr[rng.Intn(len(tr))]
		}
		o := oracle(rs, np, FitTable(rs, key), opts.Clip)
		values[i] = o.DR.Value
		if opts.SelfNormalize {
			values[i] = o.SNDR.Value
		}
	}
	return percentiles(values, level)
}

// TestBootstrapViewMatchesBootstrap pins BootstrapDRViewSeeded to the
// textbook refit-DR bootstrap with the same shard streams.
func TestBootstrapViewMatchesBootstrap(t *testing.T) {
	tr, np, _ := quantizedTrace(800)
	got, err := BootstrapDRViewSeeded(mustView(t, tr), np, DROptions{}, 42, 60, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if want := refitBootstrap(tr, np, DROptions{}, 42, 60, 0.9); got != want {
		t.Fatalf("BootstrapDRViewSeeded %+v != textbook %+v", got, want)
	}
}

// TestBootstrapViewSeededBitIdentical asserts the sharded bootstrap's
// interval and stats depend only on the seed: identical at worker
// counts 1, 2 and 8.
func TestBootstrapViewSeededBitIdentical(t *testing.T) {
	tr, np, _ := quantizedTrace(1200)
	v := mustView(t, tr)
	var wantIv Interval
	var wantStats BootstrapStats
	for _, w := range workerCounts {
		withParallelism(t, w, func() {
			iv, stats, err := BootstrapDRViewSeededStatsCtx(context.Background(), v, np, DROptions{Clip: 5}, 99, 150, 0.95)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if w == workerCounts[0] {
				wantIv, wantStats = iv, stats
			}
			if iv != wantIv || stats != wantStats || stats != (BootstrapStats{Resamples: 150}) {
				t.Fatalf("workers=%d: (%+v, %+v) != (%+v, %+v)", w, iv, stats, wantIv, wantStats)
			}
		})
	}
}

// TestBootstrapDRViewSeededMatchesRefitClosure pins the packaged
// refit-DR bootstrap to the textbook one for clipped and
// self-normalized DR too, at every worker count.
func TestBootstrapDRViewSeededMatchesRefitClosure(t *testing.T) {
	tr, np, _ := quantizedTrace(1000)
	v := mustView(t, tr)
	for _, opts := range []DROptions{{Clip: 5}, {Clip: 5, SelfNormalize: true}} {
		want := refitBootstrap(tr, np, opts, 7, 120, 0.9)
		for _, w := range workerCounts {
			withParallelism(t, w, func() {
				got, err := BootstrapDRViewSeeded(v, np, opts, 7, 120, 0.9)
				if err != nil || got != want {
					t.Fatalf("opts=%+v workers=%d: %+v (%v) != textbook %+v", opts, w, got, err, want)
				}
			})
		}
	}
}

// TestBootstrapViewAllFailMatchesSlice asserts a policy that fails on
// every resample yields the all-failed error wrapping the last
// resample's per-record error, with every resample counted skipped.
func TestBootstrapViewAllFailMatchesSlice(t *testing.T) {
	tr, _, _ := determinismTrace(300)
	bad := FuncPolicy[float64, int](func(float64) []Weighted[int] { return nil })
	_, stats, err := BootstrapDRViewSeededStatsCtx(context.Background(), mustView(t, tr), bad, DROptions{}, 5, 20, 0.9)
	if err == nil || !strings.HasPrefix(err.Error(), "core: all bootstrap resamples failed: record 0: core: empty distribution") {
		t.Fatalf("all-failing bootstrap: %v", err)
	}
	if stats != (BootstrapStats{Resamples: 20, Skipped: 20}) {
		t.Fatalf("stats %+v", stats)
	}
}

// vecCtx is a deliberately non-comparable context (slice field) for the
// keyed-view tests.
type vecCtx struct {
	xs []float64
}

func vecKey(c vecCtx) string {
	s := ""
	for _, x := range c.xs {
		s += strconv.FormatFloat(x, 'g', -1, 64) + ","
	}
	return s
}

// TestKeyedViewBitIdenticalToSlice covers NewTraceViewKeyed: a
// non-comparable context type interned by key must still reproduce the
// textbook estimates.
func TestKeyedViewBitIdenticalToSlice(t *testing.T) {
	const n = 2500
	rng := mathx.NewRNG(4321)
	old := EpsilonGreedyPolicy[vecCtx, int]{Base: func(vecCtx) int { return 0 }, Decisions: []int{0, 1, 2}, Epsilon: 0.3}
	ctxs := make([]vecCtx, n)
	for i := range ctxs {
		// Snap to a grid so keys collide and interning shares contexts.
		ctxs[i] = vecCtx{xs: []float64{float64(rng.Intn(8)) / 8, float64(rng.Intn(4)) / 4}}
	}
	reward := func(c vecCtx, d int) float64 { return c.xs[0]*float64(d+1) + c.xs[1] }
	tr := CollectTrace(ctxs, old, func(c vecCtx, d int) float64 {
		return reward(c, d) + rng.Normal(0, 0.2)
	}, rng)
	np := EpsilonGreedyPolicy[vecCtx, int]{Base: func(vecCtx) int { return 2 }, Decisions: []int{0, 1, 2}, Epsilon: 0.1}
	model := RewardFunc[vecCtx, int](func(c vecCtx, d int) float64 { return reward(c, d) + 0.1 })
	v, err := NewTraceViewKeyed(tr, vecKey)
	if err != nil {
		t.Fatalf("NewTraceViewKeyed: %v", err)
	}
	if v.NumContexts() >= n/2 {
		t.Fatalf("keyed interning did not share contexts: %d unique of %d", v.NumContexts(), n)
	}
	want := oracle(tr, np, model, 4)
	dm, err1 := DirectMethodView(v, np, model)
	snips, err2 := IPSView(v, np, IPSOptions{Clip: 4, SelfNormalize: true})
	dr, err3 := DoublyRobustView(v, np, model, DROptions{Clip: 4})
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	checkEstimate(t, "DM", dm, want.DM, 0)
	checkEstimate(t, "SNIPS", snips, want.SNIPS, 0)
	checkEstimate(t, "DR", dr, want.DR, 0)
	// FitTableView with the keyed view matches FitTable with a key
	// that composes the context key with the decision.
	mapModel := FitTable(tr, func(c vecCtx, d int) string { return vecKey(c) + "|" + strconv.Itoa(d) })
	viewModel := FitTableView(v)
	for i, rec := range tr {
		if got, want := viewModel.Predict(rec.Context, rec.Decision), mapModel.Predict(rec.Context, rec.Decision); got != want {
			t.Fatalf("record %d: keyed view predict %v != map %v", i, got, want)
		}
	}
}

// TestViewCtxVariantsHonorCancellation asserts the Ctx entry points
// observe an already-cancelled context instead of computing.
func TestViewCtxVariantsHonorCancellation(t *testing.T) {
	tr, np, model := determinismTrace(1000)
	v := mustView(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, err := range map[string]error{
		"NewTraceViewKeyedCtx": func() error {
			_, err := NewTraceViewKeyedCtx(ctx, tr, func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) })
			return err
		}(),
		"DirectMethodViewCtx": func() error { _, err := DirectMethodViewCtx(ctx, v, np, model); return err }(),
		"IPSViewCtx":          func() error { _, err := IPSViewCtx(ctx, v, np, IPSOptions{}); return err }(),
		"DoublyRobustViewCtx": func() error { _, err := DoublyRobustViewCtx(ctx, v, np, model, DROptions{}); return err }(),
		"DiagnoseViewCtx":     func() error { _, err := DiagnoseViewCtx(ctx, v, np); return err }(),
		"FitTableViewCtx":     func() error { _, err := FitTableViewCtx(ctx, v); return err }(),
		"BootstrapDRViewSeeded": func() error {
			_, _, err := BootstrapDRViewSeededStatsCtx(ctx, v, np, DROptions{}, 1, 10, 0.9)
			return err
		}(),
	} {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: %v, want context.Canceled", name, err)
		}
	}
}
