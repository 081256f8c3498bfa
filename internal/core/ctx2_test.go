package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"drnet/internal/mathx"
)

func cloneTrace(t Trace[float64, int]) Trace[float64, int] {
	return append(Trace[float64, int](nil), t...)
}

// TestSequentialCtxVariantsMatchPlain: the ctx-aware forms of the
// sequential estimators and fitters must be bit-identical to their
// plain counterparts under a live context (same rng stream where one is
// consumed).
func TestSequentialCtxVariantsMatchPlain(t *testing.T) {
	tr, pol := ctxTestTrace(500)
	ctx := context.Background()
	key := func(c float64, d int) string {
		return fmt.Sprintf("%g|%d", c, d)
	}

	m1 := FitTable(tr, key)
	m2, err := FitTableCtx(ctx, tr, key)
	if err != nil {
		t.Fatalf("FitTableCtx: %v", err)
	}
	if !reflect.DeepEqual(m1.Values, m2.Values) || m1.Default != m2.Default {
		t.Fatal("FitTableCtx diverged from FitTable")
	}

	rp1, err1 := ReplayDR(tr, Stationary[float64, int]{Policy: pol}, m1, mathx.NewRNG(11))
	rp2, err2 := ReplayDRCtx(ctx, tr, Stationary[float64, int]{Policy: pol}, m1, mathx.NewRNG(11))
	if err1 != nil || err2 != nil || rp1 != rp2 {
		t.Fatalf("ReplayDRCtx diverged: %+v/%v vs %+v/%v", rp1, err1, rp2, err2)
	}

	ckey := func(c float64) string { return fmt.Sprintf("%g", c) }
	e1, e2 := cloneTrace(tr), cloneTrace(tr)
	if err := EstimatePropensities(e1, ckey, 5, 1e-4); err != nil {
		t.Fatalf("EstimatePropensities: %v", err)
	}
	if err := EstimatePropensitiesCtx(ctx, e2, ckey, 5, 1e-4); err != nil {
		t.Fatalf("EstimatePropensitiesCtx: %v", err)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("EstimatePropensitiesCtx diverged from EstimatePropensities")
	}

	feat := func(c float64) []float64 { return []float64{c} }
	f1, f2 := cloneTrace(tr), cloneTrace(tr)
	pm1, err1 := FitPropensityModel(f1, feat, 0.1, 1e-3)
	pm2, err2 := FitPropensityModelCtx(ctx, f2, feat, 0.1, 1e-3)
	if err1 != nil || err2 != nil {
		t.Fatalf("FitPropensityModel: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(pm1, pm2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("FitPropensityModelCtx diverged from FitPropensityModel")
	}
}

// TestSequentialCtxVariantsCancelled: every sequential ctx-aware entry
// point must fail fast with context.Canceled — the stride check fires
// on the first record, so a small trace suffices.
func TestSequentialCtxVariantsCancelled(t *testing.T) {
	tr, pol := ctxTestTrace(64)
	model := FitTable(tr, func(c float64, d int) string {
		return string(rune('0' + d))
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := FitTableCtx(ctx, tr, func(c float64, d int) string { return "k" }); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitTableCtx: %v", err)
	}
	if _, err := ReplayDRCtx(ctx, tr, Stationary[float64, int]{Policy: pol}, model, mathx.NewRNG(11)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReplayDRCtx: %v", err)
	}
	if err := EstimatePropensitiesCtx(ctx, cloneTrace(tr), func(c float64) string { return "g" }, 1, 1e-4); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimatePropensitiesCtx: %v", err)
	}
	if _, err := FitPropensityModelCtx(ctx, cloneTrace(tr), func(c float64) []float64 { return []float64{c} }, 0.1, 1e-3); !errors.Is(err, context.Canceled) {
		t.Fatalf("FitPropensityModelCtx: %v", err)
	}
}
