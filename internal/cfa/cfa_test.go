package cfa

import (
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func newWorld(t *testing.T, seed int64) (*World, *mathx.RNG) {
	t.Helper()
	w := DefaultWorld()
	rng := mathx.NewRNG(seed)
	if err := w.Init(rng); err != nil {
		t.Fatal(err)
	}
	return &w, rng
}

func TestWorldInitValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	bad := DefaultWorld()
	bad.NumFeatures = 0
	if err := bad.Init(rng); err == nil {
		t.Fatal("zero features should fail")
	}
	bad = DefaultWorld()
	bad.InteractingFeatures = 99
	if err := bad.Init(rng); err == nil {
		t.Fatal("too many interacting features should fail")
	}
}

func TestDecisionsGrid(t *testing.T) {
	w, _ := newWorld(t, 2)
	if len(w.Decisions()) != w.NumCDNs*w.NumBitrates {
		t.Fatalf("decision grid size %d", len(w.Decisions()))
	}
	if w.String() == "" {
		t.Fatal("empty string")
	}
}

func TestTrueQualityDependsOnFeaturesAndDecision(t *testing.T) {
	w, rng := newWorld(t, 3)
	clients := w.SampleClients(50, rng)
	// Some pair of clients must differ in quality for the same
	// decision, and some pair of decisions must differ for the same
	// client — otherwise the world is degenerate.
	d0 := w.Decisions()[0]
	varies := false
	for _, c := range clients[1:] {
		if w.TrueQuality(c, d0) != w.TrueQuality(clients[0], d0) {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("quality should vary across clients")
	}
	c0 := clients[0]
	varies = false
	for _, d := range w.Decisions()[1:] {
		if w.TrueQuality(c0, d) != w.TrueQuality(c0, d0) {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("quality should vary across decisions")
	}
}

func TestUninitializedWorldPanics(t *testing.T) {
	w := DefaultWorld()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.TrueQuality(Client{Features: make([]int, w.NumFeatures)}, Decision{})
}

func TestCollectValidTrace(t *testing.T) {
	w, rng := newWorld(t, 4)
	if _, err := w.Collect(0, rng); err == nil {
		t.Fatal("zero clients should fail")
	}
	un := DefaultWorld()
	if _, err := un.Collect(10, rng); err == nil {
		t.Fatal("uninitialized world should fail")
	}
	d, err := w.Collect(500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Uniform logging: every propensity is 1/12.
	want := 1.0 / float64(len(w.Decisions()))
	for _, rec := range d.Trace {
		if rec.Propensity != want {
			t.Fatalf("propensity %g, want %g", rec.Propensity, want)
		}
	}
}

func TestNewPolicyQuality(t *testing.T) {
	// A mildly perturbed argmax policy should outperform uniform random
	// but trail the perfect oracle.
	w, rng := newWorld(t, 5)
	d, err := w.Collect(800, rng)
	if err != nil {
		t.Fatal(err)
	}
	np := w.NewPolicy(0.4, rng)
	vNew := d.GroundTruth(np)
	vOld := d.GroundTruth(w.OldPolicy())
	oracle := core.DeterministicPolicy[Client, Decision]{Choose: func(c Client) Decision {
		best, bestV := Decision{}, -1e300
		for _, dec := range w.Decisions() {
			if v := w.TrueQuality(c, dec); v > bestV {
				bestV, best = v, dec
			}
		}
		return best
	}}
	vOracle := d.GroundTruth(oracle)
	if vNew <= vOld {
		t.Fatalf("new policy %g should beat uniform %g", vNew, vOld)
	}
	if vNew > vOracle+1e-9 {
		t.Fatalf("new policy %g cannot beat the oracle %g", vNew, vOracle)
	}
}

func TestMatchRateNearUniformShare(t *testing.T) {
	w, rng := newWorld(t, 6)
	d, err := w.Collect(3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	np := w.NewPolicy(0.4, rng)
	v, err := core.NewTraceViewKeyed(d.Trace, Client.Key)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := core.DiagnoseView(v, np)
	if err != nil {
		t.Fatal(err)
	}
	share := 1.0 / float64(len(w.Decisions()))
	if diag.MatchRate < share/2 || diag.MatchRate > share*2 {
		t.Fatalf("match rate %g far from uniform share %g", diag.MatchRate, share)
	}
}

func TestKNNModelLearnsSignal(t *testing.T) {
	w, rng := newWorld(t, 7)
	d, err := w.Collect(3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	model, err := d.KNNModel(5)
	if err != nil {
		t.Fatal(err)
	}
	// Model predictions should correlate with the truth across random
	// (client, decision) pairs.
	var pred, truth []float64
	clients := w.SampleClients(300, rng)
	for _, c := range clients {
		dec := w.Decisions()[rng.Intn(len(w.Decisions()))]
		pred = append(pred, model.Predict(c, dec))
		truth = append(truth, w.TrueQuality(c, dec))
	}
	if r := mathx.Correlation(pred, truth); r < 0.5 {
		t.Fatalf("k-NN model correlation %g too low", r)
	}
}

func TestDRBeatsCFAMatching(t *testing.T) {
	// Figure 7c in miniature: DR (k-NN DM + correction) has lower
	// relative error than the CFA exact-matching evaluator.
	var cfaErrs, drErrs []float64
	for run := 0; run < 15; run++ {
		w, rng := newWorld(t, int64(100+run))
		d, err := w.Collect(1000, rng)
		if err != nil {
			t.Fatal(err)
		}
		np := w.NewPolicy(0.4, rng)
		truth := d.GroundTruth(np)
		v, err := core.NewTraceViewKeyed(d.Trace, Client.Key)
		if err != nil {
			t.Fatal(err)
		}
		matched, err := core.MatchedRewardsView(v, np)
		if err != nil {
			t.Fatal(err)
		}
		fit := func(tr core.Trace[Client, Decision]) (core.RewardModel[Client, Decision], error) {
			return (&Data{Trace: tr, World: d.World}).PerDecisionKNNModel(3)
		}
		dr, err := core.CrossFitDRView(v, np, fit, 2, core.DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfaErrs = append(cfaErrs, mathx.RelativeError(truth, matched.Value))
		drErrs = append(drErrs, mathx.RelativeError(truth, dr.Value))
	}
	cfaMean, drMean := mathx.Mean(cfaErrs), mathx.Mean(drErrs)
	t.Logf("CFA error %.4f, DR error %.4f", cfaMean, drMean)
	if drMean >= cfaMean {
		t.Fatalf("DR error %g should beat CFA matching error %g", drMean, cfaMean)
	}
}
