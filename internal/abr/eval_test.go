package abr

import (
	"math"
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func figure7bScenario() *Scenario {
	return &Scenario{
		Config: SessionConfig{
			Ladder:    DefaultLadder(),
			NumChunks: 100, // the paper's "video session with 100 chunks"
			Observation: ObservationModel{
				Ladder: DefaultLadder(),
				PMin:   0.55,
			},
		},
		BandwidthKbps: 1200,
		OldPolicy:     BBA{ReservoirSec: 5, CushionSec: 10, Epsilon: 0.2},
	}
}

func TestCollectValidation(t *testing.T) {
	rng := mathx.NewRNG(1)
	s := figure7bScenario()
	s.OldPolicy.Epsilon = 0
	if _, err := s.Collect(rng); err == nil {
		t.Fatal("no exploration should fail")
	}
	s = figure7bScenario()
	s.BandwidthKbps = 0
	if _, err := s.Collect(rng); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
	s = figure7bScenario()
	s.Config.Observation.PMin = 1
	if _, err := s.Collect(rng); err == nil {
		t.Fatal("PMin=1 should fail (no bias to study)")
	}
}

func TestCollectProducesValidTrace(t *testing.T) {
	rng := mathx.NewRNG(2)
	s := figure7bScenario()
	d, err := s.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Trace) != 100 || len(d.Contexts) != 100 {
		t.Fatalf("trace %d, contexts %d", len(d.Trace), len(d.Contexts))
	}
	if err := d.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range d.Trace {
		// The logged reward equals the true reward at the logged
		// decision (outcomes are deterministic given context).
		if got := d.TrueReward(rec.Context, rec.Decision); math.Abs(got-rec.Reward) > 1e-9 {
			t.Fatalf("record %d: logged reward %g != true reward %g", i, rec.Reward, got)
		}
	}
	if s.String() == "" {
		t.Fatal("empty scenario string")
	}
}

func TestModelRewardIsBiasedDownwardAtHighBitrates(t *testing.T) {
	// The Figure 2 mechanism: the predictor is contaminated by
	// low-bitrate observations, so the model underestimates what high
	// bitrates would achieve (over-predicts rebuffering).
	rng := mathx.NewRNG(3)
	s := figure7bScenario()
	d, err := s.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	top := len(d.Ladder) - 1
	biasedLow, total := 0, 0
	for _, c := range d.Contexts {
		if c.Index < 5 {
			continue // predictor warm-up
		}
		total++
		if d.ModelReward(c, top) < d.TrueReward(c, top)-1e-9 {
			biasedLow++
		}
	}
	if total == 0 || float64(biasedLow)/float64(total) < 0.5 {
		t.Fatalf("expected systematic underestimation at top bitrate: %d/%d", biasedLow, total)
	}
}

func TestDRBeatsFastMPCEvaluator(t *testing.T) {
	// The Figure 7b claim, in miniature: over repeated runs, DR's
	// relative evaluation error is well below the FastMPC (pure DM)
	// evaluator's.
	var dmErrs, drErrs []float64
	for run := 0; run < 30; run++ {
		rng := mathx.NewRNG(int64(100 + run))
		s := figure7bScenario()
		d, err := s.CollectMany(rng, 5)
		if err != nil {
			t.Fatal(err)
		}
		np := d.NewPolicy(0)
		truth := d.GroundTruth(np)
		model := core.RewardFunc[Chunk, int](d.ModelReward)
		v, err := core.NewTraceView(d.Trace)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := core.DirectMethodView(v, np, model)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := core.DoublyRobustView(v, np, model, core.DROptions{Clip: 8})
		if err != nil {
			t.Fatal(err)
		}
		dmErrs = append(dmErrs, mathx.RelativeError(truth, dm.Value))
		drErrs = append(drErrs, mathx.RelativeError(truth, dr.Value))
	}
	dmMean, drMean := mathx.Mean(dmErrs), mathx.Mean(drErrs)
	t.Logf("FastMPC evaluator error %.3f, DR error %.3f", dmMean, drMean)
	if drMean >= dmMean {
		t.Fatalf("DR error %g should beat FastMPC evaluator error %g", drMean, dmMean)
	}
}

func TestNewPolicyDeterministicAndValid(t *testing.T) {
	rng := mathx.NewRNG(4)
	s := figure7bScenario()
	d, err := s.Collect(rng)
	if err != nil {
		t.Fatal(err)
	}
	np := d.NewPolicy(0)
	for _, c := range d.Contexts[:10] {
		dist := np.Distribution(c)
		if err := core.ValidateDistribution(dist); err != nil {
			t.Fatal(err)
		}
		if dist[0].Decision < 0 || dist[0].Decision >= len(d.Ladder) {
			t.Fatalf("policy chose invalid level %d", dist[0].Decision)
		}
		// Determinism.
		if again := np.Distribution(c); again[0].Decision != dist[0].Decision {
			t.Fatal("new policy not deterministic")
		}
	}
}
