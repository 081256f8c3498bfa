package relay

import (
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func newMultiWorld(t *testing.T, seed int64) (*MultiWorld, *mathx.RNG) {
	t.Helper()
	w := DefaultMultiWorld()
	rng := mathx.NewRNG(seed)
	if err := w.Init(rng); err != nil {
		t.Fatal(err)
	}
	return w, rng
}

func TestMultiWorldInitValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	bad := DefaultMultiWorld()
	bad.NumRelays = 0
	if err := bad.Init(rng); err == nil {
		t.Fatal("zero relays should fail")
	}
	bad = DefaultMultiWorld()
	bad.NumAS = 1
	if err := bad.Init(rng); err == nil {
		t.Fatal("embedded world validation should propagate")
	}
}

func TestMultiPathStrings(t *testing.T) {
	if DirectPath.String() != "direct" || MultiPath(2).String() != "relay2" {
		t.Fatal("bad path strings")
	}
}

func TestMultiWorldPathsAndQuality(t *testing.T) {
	w, _ := newMultiWorld(t, 2)
	paths := w.Paths()
	if len(paths) != w.NumRelays+1 || paths[0] != DirectPath {
		t.Fatalf("paths = %v", paths)
	}
	// NAT penalty applies on every path.
	c := Call{SrcAS: 0, DstAS: 1}
	n := c
	n.NAT = true
	for _, p := range paths {
		d := w.TrueQuality(c, p) - w.TrueQuality(n, p)
		if d < w.NATPenalty-1e-9 || d > w.NATPenalty+1e-9 {
			t.Fatalf("NAT penalty %g on path %v", d, p)
		}
	}
	// Relays differ: on a congested pair at least two relays should
	// give different quality (random placements).
	var congested *Call
	for a := 0; a < w.NumAS && congested == nil; a++ {
		for b := 0; b < w.NumAS; b++ {
			if a != b && w.Congested(a, b) {
				congested = &Call{SrcAS: a, DstAS: b}
				break
			}
		}
	}
	if congested == nil {
		t.Skip("no congested pair in this draw")
	}
	q0 := w.TrueQuality(*congested, MultiPath(0))
	differs := false
	for k := 1; k < w.NumRelays; k++ {
		if w.TrueQuality(*congested, MultiPath(k)) != q0 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("relays should be heterogeneous")
	}
}

func TestMultiWorldUninitializedPanics(t *testing.T) {
	w := DefaultMultiWorld()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.TrueQuality(Call{}, DirectPath)
}

func TestMultiWorldCollect(t *testing.T) {
	w, rng := newMultiWorld(t, 3)
	if _, err := w.Collect(0, rng); err == nil {
		t.Fatal("zero calls should fail")
	}
	un := DefaultMultiWorld()
	if _, err := un.Collect(5, rng); err == nil {
		t.Fatal("uninitialized should fail")
	}
	d, err := w.Collect(3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := d.Trace.DecisionCounts()
	// Legacy default: relay0 and direct dominate; other relays appear
	// only via exploration.
	if counts[MultiPath(0)] < counts[MultiPath(1)] || counts[DirectPath] < counts[MultiPath(2)] {
		t.Fatalf("unexpected logging mix: %v", counts)
	}
}

func TestMultiRelayDRRanksOracleAboveLegacy(t *testing.T) {
	// Off-policy selection in the richer space: DR must rank the oracle
	// routing above the legacy policy using only logged data, and its
	// estimates should be close to the truths.
	w, rng := newMultiWorld(t, 4)
	d, err := w.Collect(6000, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := d.VIAModel()
	oracle := w.OraclePolicy()
	legacy := w.OldPolicy()
	truthOracle := d.GroundTruth(oracle)
	truthLegacy := d.GroundTruth(legacy)
	if truthOracle <= truthLegacy {
		t.Fatalf("oracle %g should beat legacy %g in truth", truthOracle, truthLegacy)
	}
	v, err := core.NewTraceView(d.Trace)
	if err != nil {
		t.Fatal(err)
	}
	estOracle, err := core.DoublyRobustView(v, oracle, model, core.DROptions{Clip: 50})
	if err != nil {
		t.Fatal(err)
	}
	estLegacy, err := core.DoublyRobustView(v, legacy, model, core.DROptions{Clip: 50})
	if err != nil {
		t.Fatal(err)
	}
	if estOracle.Value <= estLegacy.Value {
		t.Fatalf("DR should rank oracle (%g) above legacy (%g)", estOracle.Value, estLegacy.Value)
	}
	if e := mathx.RelativeError(truthOracle, estOracle.Value); e > 0.1 {
		t.Fatalf("DR error on oracle %g too high", e)
	}
}

func TestMultiRelayMatchingStarves(t *testing.T) {
	// §2.2.2 in the richer space: exact matching against the oracle
	// policy finds few records and has high dispersion across runs
	// compared to DR.
	var matchErrs, drErrs []float64
	for run := 0; run < 10; run++ {
		w, rng := newMultiWorld(t, int64(50+run))
		d, err := w.Collect(1500, rng)
		if err != nil {
			t.Fatal(err)
		}
		oracle := w.OraclePolicy()
		truth := d.GroundTruth(oracle)
		v, err := core.NewTraceView(d.Trace)
		if err != nil {
			t.Fatal(err)
		}
		matched, err := core.MatchedRewardsView(v, oracle)
		if err != nil {
			matchErrs = append(matchErrs, 1)
		} else {
			matchErrs = append(matchErrs, mathx.RelativeError(truth, matched.Value))
		}
		dr, err := core.DoublyRobustView(v, oracle, d.VIAModel(), core.DROptions{Clip: 50})
		if err != nil {
			t.Fatal(err)
		}
		drErrs = append(drErrs, mathx.RelativeError(truth, dr.Value))
	}
	if mathx.Mean(drErrs) >= mathx.Mean(matchErrs) {
		t.Fatalf("DR %g should beat matching %g in the multi-relay space",
			mathx.Mean(drErrs), mathx.Mean(matchErrs))
	}
}
