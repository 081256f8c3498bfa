package abr

import (
	"errors"
	"fmt"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

// Chunk is the client-context of the Figure 7b evaluation: one chunk
// slot of the logged session, featurized by everything an offline
// evaluator can see in the trace.
type Chunk struct {
	// Index is the chunk's position in the session.
	Index int
	// BufferSec is the playout buffer before this chunk (from the
	// logged trajectory).
	BufferSec float64
	// LastLevel is the previous chunk's ladder level (-1 for first).
	LastLevel int
	// ObservedKbps is the throughput observed while downloading this
	// chunk in the trace: b·p(logged level).
	ObservedKbps float64
	// PredictedKbps is the throughput the evaluator's predictor
	// estimates for this chunk from the logged history — the quantity
	// FastMPC's evaluator (wrongly) treats as bitrate-independent.
	PredictedKbps float64
}

// Scenario is the paper's Figure 7b setup: a session of NumChunks chunks
// over constant available bandwidth, logged under an ε-randomized
// buffer-based policy, with observed throughput b·p(r).
type Scenario struct {
	Config SessionConfig
	// BandwidthKbps is the constant true available bandwidth b.
	BandwidthKbps float64
	// OldPolicy is the logging (buffer-based) policy; its Epsilon must
	// be positive so propensities exist.
	OldPolicy BBA
	// Predictor is the throughput predictor used both by the offline
	// evaluator's reward model and by the new (MPC) policy. Defaults to
	// a harmonic mean over 5 chunks.
	Predictor Predictor
}

// Data is a collected scenario instance ready for off-policy evaluation.
type Data struct {
	// Trace is the logged trace with propensities.
	Trace core.Trace[Chunk, int]
	// Contexts are the logged chunk contexts, in order.
	Contexts []Chunk
	// Ladder is the bitrate ladder used.
	Ladder Ladder
	scn    *Scenario
}

// Collect runs the old policy in the simulator and assembles the
// off-policy evaluation inputs.
func (s *Scenario) Collect(rng *mathx.RNG) (*Data, error) {
	if s.OldPolicy.Epsilon <= 0 {
		return nil, errors.New("abr: old policy must explore (Epsilon > 0) for IPS/DR propensities")
	}
	if s.BandwidthKbps <= 0 {
		return nil, errors.New("abr: BandwidthKbps must be positive")
	}
	cfg := s.Config
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.Observation.PMin >= 1 {
		return nil, errors.New("abr: Observation.PMin must be < 1 for the Figure 7b bias to exist")
	}
	if s.Predictor == nil {
		s.Predictor = HarmonicMean{Window: 5, Prior: s.BandwidthKbps}
	}
	s.Config = cfg

	bw := ConstantBandwidth{Kbps: s.BandwidthKbps}.Series(cfg.NumChunks, rng)
	res, err := Simulate(cfg, s.OldPolicy, bw, rng)
	if err != nil {
		return nil, err
	}
	d := &Data{Ladder: cfg.Ladder, scn: s}
	observed := make([]float64, 0, cfg.NumChunks)
	buffer := cfg.StartBufferSec
	lastLevel := -1
	for k, out := range res.Outcomes {
		c := Chunk{
			Index:         k,
			BufferSec:     buffer,
			LastLevel:     lastLevel,
			ObservedKbps:  out.ObservedKbps,
			PredictedKbps: s.Predictor.Predict(observed),
		}
		state := State{ChunkIndex: k, BufferSec: buffer, LastLevel: lastLevel, Observed: observed}
		props := s.OldPolicy.Probabilities(state, cfg.Ladder)
		d.Contexts = append(d.Contexts, c)
		d.Trace = append(d.Trace, core.Record[Chunk, int]{
			Context:    c,
			Decision:   out.Level,
			Reward:     d.TrueReward(c, out.Level),
			Propensity: props[out.Level],
		})
		buffer = out.BufferAfterSec
		lastLevel = out.Level
		observed = append(observed, out.ObservedKbps)
	}
	return d, nil
}

// CollectMany runs the logging policy over several independent sessions
// and concatenates the traces — the evaluation corpus a video provider
// would actually accumulate (many sessions of the same service).
func (s *Scenario) CollectMany(rng *mathx.RNG, sessions int) (*Data, error) {
	if sessions < 1 {
		return nil, errors.New("abr: need at least one session")
	}
	var all *Data
	for i := 0; i < sessions; i++ {
		d, err := s.Collect(rng)
		if err != nil {
			return nil, err
		}
		if all == nil {
			all = d
		} else {
			all.Trace = append(all.Trace, d.Trace...)
			all.Contexts = append(all.Contexts, d.Contexts...)
		}
	}
	return all, nil
}

// chunkReward computes the per-chunk QoE contribution of streaming level
// d when the chunk downloads at throughput tputKbps, from context c.
func (d *Data) chunkReward(c Chunk, level int, tputKbps float64) float64 {
	cfg := d.scn.Config
	if tputKbps <= 0 {
		tputKbps = 1
	}
	dl := d.Ladder[level] * cfg.ChunkSec / tputKbps
	rebuf := 0.0
	if dl > c.BufferSec {
		rebuf = dl - c.BufferSec
	}
	q := d.Ladder.Quality(level)
	r := q - cfg.Weights.RebufferPenalty*rebuf
	if c.LastLevel >= 0 {
		r -= cfg.Weights.SwitchPenalty * absf(q-d.Ladder.Quality(c.LastLevel))
	}
	return r
}

// TrueReward is the ground-truth per-chunk reward: the chunk actually
// downloads at b·p(level), the real (bitrate-dependent) observation.
func (d *Data) TrueReward(c Chunk, level int) float64 {
	return d.chunkReward(c, level, d.scn.Config.Observation.Observe(d.scn.BandwidthKbps, level))
}

// ModelReward is the FastMPC-style evaluator's reward model: it predicts
// the chunk's throughput from the logged history and assumes that
// prediction holds at every bitrate — the misspecification of Figure 2.
func (d *Data) ModelReward(c Chunk, level int) float64 {
	return d.chunkReward(c, level, c.PredictedKbps)
}

// NewPolicy returns the target policy of Figure 7b: a deterministic
// MPC-style controller driven by the predicted throughput in the chunk
// context scaled by an optimism factor. Optimism > 1 models a designer
// who knows that small chunks under-report path capacity (Figure 2) and
// compensates — which makes the new policy use higher bitrates than the
// old one, exactly the regime where the FastMPC evaluator's
// bitrate-independent throughput assumption is most wrong. optimism <= 0
// selects the default of 1.4.
func (d *Data) NewPolicy(optimism float64) core.Policy[Chunk, int] {
	if optimism <= 0 {
		optimism = 1.4
	}
	mpc := MPC{
		Horizon:  3,
		ChunkSec: d.scn.Config.ChunkSec,
		Weights:  d.scn.Config.Weights,
	}
	ladder := d.Ladder
	return core.DeterministicPolicy[Chunk, int]{Choose: func(c Chunk) int {
		m := mpc
		m.Predictor = LastSample{Prior: c.PredictedKbps * optimism}
		s := State{
			ChunkIndex: c.Index,
			BufferSec:  c.BufferSec,
			LastLevel:  c.LastLevel,
		}
		return m.Next(s, ladder, nil)
	}}
}

// GroundTruth returns the true expected per-chunk reward of a policy on
// the logged contexts.
func (d *Data) GroundTruth(p core.Policy[Chunk, int]) float64 {
	return core.TrueValue(d.Contexts, p, d.TrueReward)
}

// String summarizes the scenario.
func (s *Scenario) String() string {
	return fmt.Sprintf("abr scenario: %d chunks, b=%.0f Kbps, PMin=%.2f, eps=%.2f",
		s.Config.NumChunks, s.BandwidthKbps, s.Config.Observation.PMin, s.OldPolicy.Epsilon)
}
