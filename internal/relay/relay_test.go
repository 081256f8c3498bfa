package relay

import (
	"math"
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

func TestInitValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	bad := DefaultWorld()
	bad.NumAS = 1
	if err := bad.Init(rng); err == nil {
		t.Fatal("one AS should fail")
	}
	bad = DefaultWorld()
	bad.Epsilon = 0
	if err := bad.Init(rng); err == nil {
		t.Fatal("epsilon 0 should fail")
	}
}

func TestTrueQualitySemantics(t *testing.T) {
	w, _ := newWorld(t, 2)
	// Find one congested and one clear pair.
	var congSrc, congDst, clearSrc, clearDst = -1, -1, -1, -1
	for a := 0; a < w.NumAS && (congSrc < 0 || clearSrc < 0); a++ {
		for b := 0; b < w.NumAS; b++ {
			if a == b {
				continue
			}
			if w.Congested(a, b) && congSrc < 0 {
				congSrc, congDst = a, b
			}
			if !w.Congested(a, b) && clearSrc < 0 {
				clearSrc, clearDst = a, b
			}
		}
	}
	if congSrc < 0 || clearSrc < 0 {
		t.Skip("world draw lacks one pair type")
	}
	cong := Call{SrcAS: congSrc, DstAS: congDst}
	clear := Call{SrcAS: clearSrc, DstAS: clearDst}
	// Relaying helps on congested pairs...
	if w.TrueQuality(cong, Relayed) <= w.TrueQuality(cong, Direct) {
		t.Fatal("relaying should help congested pairs")
	}
	// ...and hurts (overhead) on clear pairs.
	if w.TrueQuality(clear, Relayed) >= w.TrueQuality(clear, Direct) {
		t.Fatal("relaying should cost overhead on clear pairs")
	}
	// NAT penalty applies regardless of path.
	nat := cong
	nat.NAT = true
	if d := w.TrueQuality(cong, Relayed) - w.TrueQuality(nat, Relayed); math.Abs(d-w.NATPenalty) > 1e-12 {
		t.Fatalf("NAT penalty on relay path = %g, want %g", d, w.NATPenalty)
	}
}

func TestUninitializedPanics(t *testing.T) {
	w := DefaultWorld()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Congested(0, 1)
}

func TestOldPolicyBias(t *testing.T) {
	w, _ := newWorld(t, 3)
	old := w.OldPolicy()
	natCall := Call{SrcAS: 0, DstAS: 1, NAT: true}
	pubCall := Call{SrcAS: 0, DstAS: 1, NAT: false}
	if p := core.Prob(old, natCall, Relayed); p < 0.9 {
		t.Fatalf("NAT calls should be relayed w.h.p., got %g", p)
	}
	if p := core.Prob(old, pubCall, Direct); p < 0.9 {
		t.Fatalf("public calls should go direct w.h.p., got %g", p)
	}
}

func TestSampleCallsNoSelfPairs(t *testing.T) {
	w, rng := newWorld(t, 4)
	for _, c := range w.SampleCalls(500, rng) {
		if c.SrcAS == c.DstAS {
			t.Fatal("self AS pair sampled")
		}
		if c.SrcAS < 0 || c.SrcAS >= w.NumAS || c.DstAS < 0 || c.DstAS >= w.NumAS {
			t.Fatal("AS out of range")
		}
	}
}

func TestCollect(t *testing.T) {
	w, rng := newWorld(t, 5)
	if _, err := w.Collect(0, rng); err == nil {
		t.Fatal("zero calls should fail")
	}
	un := DefaultWorld()
	if _, err := un.Collect(5, rng); err == nil {
		t.Fatal("uninitialized world should fail")
	}
	d, err := w.Collect(2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.String() == "" || Relayed.String() == "" || Direct.String() == "" {
		t.Fatal("empty strings")
	}
}

func TestVIAModelContaminatedByNAT(t *testing.T) {
	// The Figure 3 claim: the NAT-blind model underestimates relay
	// quality for public-IP calls on congested pairs.
	w, rng := newWorld(t, 6)
	d, err := w.Collect(6000, rng)
	if err != nil {
		t.Fatal(err)
	}
	via := d.VIAModel()
	var gaps []float64
	for a := 0; a < w.NumAS; a++ {
		for b := 0; b < w.NumAS; b++ {
			if a == b || !w.Congested(a, b) {
				continue
			}
			pub := Call{SrcAS: a, DstAS: b, NAT: false}
			gaps = append(gaps, w.TrueQuality(pub, Relayed)-via.Predict(pub, Relayed))
		}
	}
	if len(gaps) == 0 {
		t.Skip("no congested pairs in this draw")
	}
	// The model should underestimate by roughly NATFrac-weighted NAT
	// penalty (~0.75 of 0.8 given relays are almost all NAT-ed).
	if m := mathx.Mean(gaps); m < w.NATPenalty/2 {
		t.Fatalf("mean underestimation %g, want > %g", m, w.NATPenalty/2)
	}
	// The NAT-aware model removes most of that bias.
	full := d.FullModel()
	var fullGaps []float64
	for a := 0; a < w.NumAS; a++ {
		for b := 0; b < w.NumAS; b++ {
			if a == b || !w.Congested(a, b) {
				continue
			}
			pub := Call{SrcAS: a, DstAS: b, NAT: false}
			fullGaps = append(fullGaps, math.Abs(w.TrueQuality(pub, Relayed)-full.Predict(pub, Relayed)))
		}
	}
	if mathx.Mean(fullGaps) >= mathx.Mean(gaps) {
		t.Fatalf("NAT-aware model should cut the bias: %g vs %g", mathx.Mean(fullGaps), mathx.Mean(gaps))
	}
}

func TestDRCorrectsNATBias(t *testing.T) {
	// E7: DM with the NAT-blind VIA model is biased; DR with the same
	// model and known propensities removes most of the error.
	var dmErrs, drErrs []float64
	for run := 0; run < 15; run++ {
		w, rng := newWorld(t, int64(100+run))
		d, err := w.Collect(4000, rng)
		if err != nil {
			t.Fatal(err)
		}
		np := w.NewPolicy()
		truth := d.GroundTruth(np)
		via := d.VIAModel()
		v, err := core.NewTraceView(d.Trace)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := core.DirectMethodView(v, np, via)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := core.DoublyRobustView(v, np, via, core.DROptions{})
		if err != nil {
			t.Fatal(err)
		}
		dmErrs = append(dmErrs, mathx.RelativeError(truth, dm.Value))
		drErrs = append(drErrs, mathx.RelativeError(truth, dr.Value))
	}
	dmMean, drMean := mathx.Mean(dmErrs), mathx.Mean(drErrs)
	t.Logf("VIA (DM) error %.4f, DR error %.4f", dmMean, drMean)
	if drMean >= dmMean {
		t.Fatalf("DR error %g should beat VIA error %g", drMean, dmMean)
	}
}
