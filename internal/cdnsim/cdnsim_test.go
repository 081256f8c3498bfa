package cdnsim

import (
	"math"
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func TestWorldGroundTruth(t *testing.T) {
	w := DefaultWorld()
	if got := w.MeanResponse(Request{ISP: ISP1}, Config{0, 0}); got != 300 {
		t.Fatalf("ISP1/FE1/BE1 = %g, want long (300)", got)
	}
	// The paper's request X: ISP-1 via FE-1 and BE-2 should be short.
	if got := w.MeanResponse(Request{ISP: ISP1}, Config{0, 1}); got != 100 {
		t.Fatalf("ISP1/FE1/BE2 = %g, want short (100)", got)
	}
	if got := w.MeanResponse(Request{ISP: ISP2}, Config{0, 0}); got != 100 {
		t.Fatalf("ISP2 should always be short, got %g", got)
	}
	if w.String() == "" {
		t.Fatal("empty string")
	}
}

func TestDrawResponsePositive(t *testing.T) {
	w := DefaultWorld()
	w.NoiseMs = 500 // absurd noise to exercise the clamp
	rng := mathx.NewRNG(1)
	for i := 0; i < 200; i++ {
		if v := w.DrawResponse(Request{}, Config{}, rng); v < 1 {
			t.Fatalf("response %g below clamp", v)
		}
	}
}

func TestOldPolicyDistribution(t *testing.T) {
	w := DefaultWorld()
	dist := w.OldPolicy().Distribution(Request{ISP: ISP1})
	if err := core.ValidateDistribution(dist); err != nil {
		t.Fatal(err)
	}
	// 500/1010 on arrows, 5/1010 on the rare pairs.
	for _, wc := range dist {
		if wc.Decision == (Config{0, 0}) || wc.Decision == (Config{1, 1}) {
			if math.Abs(wc.Prob-500.0/1010) > 1e-12 {
				t.Fatalf("arrow prob = %g", wc.Prob)
			}
		} else if math.Abs(wc.Prob-5.0/1010) > 1e-12 {
			t.Fatalf("rare prob = %g", wc.Prob)
		}
	}
}

func TestNewPolicyMoves50PercentOfISP1(t *testing.T) {
	w := DefaultWorld()
	np := w.NewPolicy()
	dist := np.Distribution(Request{ISP: ISP1})
	if err := core.ValidateDistribution(dist); err != nil {
		t.Fatal(err)
	}
	if got := core.Prob(np, Request{ISP: ISP1}, Config{0, 1}); got < 0.5 {
		t.Fatalf("P(FE1,BE2 | ISP1) = %g, want >= 0.5", got)
	}
	// ISP-2 unchanged.
	d2 := np.Distribution(Request{ISP: ISP2})
	o2 := w.OldPolicy().Distribution(Request{ISP: ISP2})
	for i := range d2 {
		if d2[i] != o2[i] {
			t.Fatal("ISP-2 distribution should match the old policy")
		}
	}
}

func TestCollectCountsAndPropensities(t *testing.T) {
	w := DefaultWorld()
	rng := mathx.NewRNG(2)
	d, err := Collect(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Trace) != 2*(2*500+2*5) {
		t.Fatalf("trace length %d, want 2020", len(d.Trace))
	}
	if err := d.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := d.Trace.DecisionCounts()
	if counts[Config{0, 1}] != 10 { // 5 per ISP
		t.Fatalf("rare config count %d, want 10", counts[Config{0, 1}])
	}
	if counts[Config{0, 0}] != 1000 {
		t.Fatalf("arrow config count %d, want 1000", counts[Config{0, 0}])
	}
}

func TestCollectValidation(t *testing.T) {
	rng := mathx.NewRNG(3)
	bad := DefaultWorld()
	bad.ArrowClients = 0
	if _, err := Collect(bad, rng); err == nil {
		t.Fatal("zero arrow clients should fail")
	}
	bad = DefaultWorld()
	bad.LongMs = 50
	if _, err := Collect(bad, rng); err == nil {
		t.Fatal("LongMs < ShortMs should fail")
	}
}

func TestWISEModelMispredictsRequestX(t *testing.T) {
	// The Figure 4 claim: with maxParents=2 (incomplete CBN) the WISE
	// model predicts a LONG response for ISP-1 via FE-1/BE-2, though the
	// truth is short.
	w := DefaultWorld()
	rng := mathx.NewRNG(4)
	d, err := Collect(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	model, err := d.WISEModel(2)
	if err != nil {
		t.Fatal(err)
	}
	x := Request{ISP: ISP1}
	pred := model.Predict(x, Config{0, 1})
	truth := w.MeanResponse(x, Config{0, 1})
	if pred < truth+50 {
		t.Fatalf("incomplete CBN should over-predict request X: pred %g vs truth %g", pred, truth)
	}
	// And it should get the dominant arrows roughly right.
	if p := model.Predict(x, Config{0, 0}); p < 250 {
		t.Fatalf("arrow (FE1,BE1) prediction %g, want near 300", p)
	}
	if p := model.Predict(x, Config{1, 1}); p > 150 {
		t.Fatalf("arrow (FE2,BE2) prediction %g, want near 100", p)
	}
}

func TestDRBeatsWISE(t *testing.T) {
	// Figure 7a in miniature: DR's relative evaluation error is below
	// the WISE (CBN Direct Method) evaluator's, averaged over runs.
	var dmErrs, drErrs []float64
	for run := 0; run < 15; run++ {
		rng := mathx.NewRNG(int64(50 + run))
		w := DefaultWorld()
		d, err := Collect(w, rng)
		if err != nil {
			t.Fatal(err)
		}
		np := w.NewPolicy()
		truth := d.GroundTruth(np)
		model, err := d.WISEModel(2)
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.NewTraceView(d.Trace)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := core.DirectMethodView(v, np, model)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := core.DoublyRobustView(v, np, model, core.DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		dmErrs = append(dmErrs, mathx.RelativeError(truth, dm.Value))
		drErrs = append(drErrs, mathx.RelativeError(truth, dr.Value))
	}
	dmMean, drMean := mathx.Mean(dmErrs), mathx.Mean(drErrs)
	t.Logf("WISE error %.4f, DR error %.4f", dmMean, drMean)
	if drMean >= dmMean {
		t.Fatalf("DR error %g should beat WISE error %g", drMean, dmMean)
	}
}

func TestAllConfigs(t *testing.T) {
	if len(AllConfigs()) != 4 {
		t.Fatal("expected 4 configurations")
	}
}

func TestWISEModelValidationAndFallbacks(t *testing.T) {
	w := DefaultWorld()
	rng := mathx.NewRNG(9)
	d, err := Collect(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	// maxParents <= 0 defaults to 2 and still mispredicts request X.
	model, err := d.WISEModel(0)
	if err != nil {
		t.Fatal(err)
	}
	if pred := model.Predict(Request{ISP: ISP1}, Config{0, 1}); pred < 200 {
		t.Fatalf("default maxParents should reproduce the bias, got %g", pred)
	}
	// Predictions are finite and within the response-time range for all
	// (request, config) combinations, including never-logged ones.
	for _, isp := range []ISP{ISP1, ISP2} {
		for _, cfg := range AllConfigs() {
			p := model.Predict(Request{ISP: isp}, cfg)
			if p < w.ShortMs-1 || p > w.LongMs+1 {
				t.Fatalf("prediction %g outside [%g, %g]", p, w.ShortMs, w.LongMs)
			}
		}
	}
}

func TestWISEModelPermissiveStructureFixesRequestX(t *testing.T) {
	// With enough parents allowed, the learner recovers the full
	// three-way interaction and request X is predicted short.
	w := DefaultWorld()
	rng := mathx.NewRNG(10)
	d, err := Collect(w, rng)
	if err != nil {
		t.Fatal(err)
	}
	model, err := d.WISEModel(3)
	if err != nil {
		t.Fatal(err)
	}
	if pred := model.Predict(Request{ISP: ISP1}, Config{0, 1}); pred > 200 {
		t.Fatalf("3-parent CBN should predict request X short, got %g", pred)
	}
}
