package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strconv"
	"testing"

	"drnet/internal/mathx"
)

// ctxTestTrace builds a moderately sized randomized trace, mirroring
// the world used by the determinism tests.
func ctxTestTrace(n int) (Trace[float64, int], Policy[float64, int]) {
	rng := mathx.NewRNG(5)
	old := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.3,
	}
	ctxs := make([]float64, n)
	for i := range ctxs {
		ctxs[i] = float64(rng.Intn(4))
	}
	tr := CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return x + float64(d) + rng.Normal(0, 0.05)
	}, rng)
	np := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 2 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.1,
	}
	return tr, np
}

// TestEstimatorCtxVariantsMatchPlain: with a live context the Ctx
// variants must be bit-identical to their plain counterparts.
func TestEstimatorCtxVariantsMatchPlain(t *testing.T) {
	tr, pol := ctxTestTrace(600)
	ctx := context.Background()
	key := func(c float64) string { return strconv.FormatFloat(c, 'g', -1, 64) }
	v, err := NewTraceViewKeyed(tr, key)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewTraceViewKeyedCtx(ctx, tr, key)
	if err != nil || v2.Len() != v.Len() || v2.NumContexts() != v.NumContexts() {
		t.Fatalf("NewTraceViewKeyedCtx diverged: %v", err)
	}
	model := FitTableView(v)
	model2, err := FitTableViewCtx(ctx, v)
	if err != nil || !reflect.DeepEqual(model, model2) {
		t.Fatalf("FitTableViewCtx diverged: %v", err)
	}
	dm1, err1 := DirectMethodView(v, pol, model)
	dm2, err2 := DirectMethodViewCtx(ctx, v, pol, model)
	if err1 != nil || err2 != nil || dm1 != dm2 {
		t.Fatalf("DM diverged: %+v/%v vs %+v/%v", dm1, err1, dm2, err2)
	}
	ips1, err1 := IPSView(v, pol, IPSOptions{Clip: 5})
	ips2, err2 := IPSViewCtx(ctx, v, pol, IPSOptions{Clip: 5})
	if err1 != nil || err2 != nil || ips1 != ips2 {
		t.Fatal("IPS diverged")
	}
	dr1, err1 := DoublyRobustView(v, pol, model, DROptions{})
	dr2, err2 := DoublyRobustViewCtx(ctx, v, pol, model, DROptions{})
	if err1 != nil || err2 != nil || dr1 != dr2 {
		t.Fatal("DR diverged")
	}
	d1, err1 := DiagnoseView(v, pol)
	d2, err2 := DiagnoseViewCtx(ctx, v, pol)
	if err1 != nil || err2 != nil || d1 != d2 {
		t.Fatal("Diagnose diverged")
	}
}

// TestEstimatorCtxCancelled: a cancelled context fails every ctx-aware
// estimator with context.Canceled.
func TestEstimatorCtxCancelled(t *testing.T) {
	tr, pol := ctxTestTrace(600)
	v := mustView(t, tr)
	model := FitTableView(v)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DirectMethodViewCtx(ctx, v, pol, model); !errors.Is(err, context.Canceled) {
		t.Fatalf("DM: %v", err)
	}
	if _, err := IPSViewCtx(ctx, v, pol, IPSOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("IPS: %v", err)
	}
	if _, err := DoublyRobustViewCtx(ctx, v, pol, model, DROptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DR: %v", err)
	}
	if _, err := DiagnoseViewCtx(ctx, v, pol); !errors.Is(err, context.Canceled) {
		t.Fatalf("Diagnose: %v", err)
	}
}

// TestBootstrapSeededStatsCtxMatchesPlain: the ctx-aware bootstrap with
// a live context returns the identical interval and stats at every
// worker count.
func TestBootstrapSeededStatsCtxMatchesPlain(t *testing.T) {
	tr, pol := ctxTestTrace(300)
	v := mustView(t, tr)
	want, err := BootstrapDRViewSeeded(v, pol, DROptions{Clip: 10}, 21, 120, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		withParallelism(t, w, func() {
			iv, stats, err := BootstrapDRViewSeededStatsCtx(context.Background(), v, pol, DROptions{Clip: 10}, 21, 120, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if iv != want || stats != (BootstrapStats{Resamples: 120}) {
				t.Fatalf("workers=%d: ctx bootstrap diverged: %+v/%+v vs %+v", w, iv, stats, want)
			}
		})
	}
}

// TestBootstrapSeededStatsCtxCancelled: cancellation surfaces as the
// ctx error, not as a half-built interval.
func TestBootstrapSeededStatsCtxCancelled(t *testing.T) {
	tr, pol := ctxTestTrace(300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iv, stats, err := BootstrapDRViewSeededStatsCtx(ctx, mustView(t, tr), pol, DROptions{}, 21, 120, 0.95)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if iv != (Interval{}) || stats != (BootstrapStats{}) {
		t.Fatalf("non-zero results on cancellation: %+v %+v", iv, stats)
	}
}

// TestValidateRejectsNaNAndInf pins the hardened trace validation: NaN
// propensities and infinite rewards must fail, not flow into weights.
func TestValidateRejectsNaNAndInf(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	good := Record[float64, int]{Context: 1, Decision: 0, Reward: 1, Propensity: 0.5}
	cases := []struct {
		name string
		rec  Record[float64, int]
	}{
		{"NaN propensity", Record[float64, int]{Context: 1, Decision: 0, Reward: 1, Propensity: nan}},
		{"Inf reward", Record[float64, int]{Context: 1, Decision: 0, Reward: inf, Propensity: 0.5}},
		{"-Inf reward", Record[float64, int]{Context: 1, Decision: 0, Reward: -inf, Propensity: 0.5}},
	}
	for _, c := range cases {
		tr := Trace[float64, int]{good, c.rec}
		if err := tr.Validate(); err == nil {
			t.Fatalf("%s passed validation", c.name)
		}
	}
	if err := (Trace[float64, int]{good}).Validate(); err != nil {
		t.Fatalf("healthy record rejected: %v", err)
	}
}
