// Package cdnsim reproduces the paper's Figure 4 world: requests from
// two ISPs choose one of two frontend clusters (FE-1, FE-2) and one of
// two backend clusters (BE-1, BE-2). The ground truth is that a request
// from ISP-1 sees a long response time only when it uses both FE-1 and
// BE-1; every other combination is short.
//
// A WISE-style evaluator [38] learns a Causal Bayesian Network from the
// logged trace and answers what-if configuration questions from it — a
// Direct Method whose structural bias (an incomplete CBN learned from a
// skewed trace) the paper's Figure 7a quantifies against DR.
package cdnsim

import (
	"errors"
	"fmt"

	"drnet/internal/cbn"
	"drnet/internal/core"
	"drnet/internal/mathx"
)

// ISP identifies the client's ISP.
type ISP int

// The two ISPs of Figure 4.
const (
	ISP1 ISP = 0
	ISP2 ISP = 1
)

// Config is a CDN configuration decision: which frontend and backend a
// request is mapped to.
type Config struct {
	FE int // 0 = FE-1, 1 = FE-2
	BE int // 0 = BE-1, 1 = BE-2
}

// Request is the client-context: the requesting ISP.
type Request struct {
	ISP ISP
}

// World holds the scenario's ground-truth response-time parameters.
type World struct {
	// ShortMs and LongMs are the two response-time regimes.
	ShortMs, LongMs float64
	// NoiseMs is the response-time measurement noise (std dev).
	NoiseMs float64
	// ArrowClients is the number of clients logged per "measurement
	// arrow" of Figure 4 (paper: 500).
	ArrowClients int
	// RareClients is the number logged per remaining (FE, BE) choice
	// (paper: 5).
	RareClients int
}

// DefaultWorld returns the paper's Figure 7a parameters.
func DefaultWorld() World {
	return World{ShortMs: 100, LongMs: 300, NoiseMs: 10, ArrowClients: 500, RareClients: 5}
}

// MeanResponse returns the noise-free ground-truth response time of a
// request: long only for ISP-1 via FE-1 and BE-1.
func (w World) MeanResponse(r Request, c Config) float64 {
	if r.ISP == ISP1 && c.FE == 0 && c.BE == 0 {
		return w.LongMs
	}
	return w.ShortMs
}

// DrawResponse samples a noisy response time.
func (w World) DrawResponse(r Request, c Config, rng *mathx.RNG) float64 {
	v := w.MeanResponse(r, c) + rng.Normal(0, w.NoiseMs)
	if v < 1 {
		v = 1
	}
	return v
}

// oldDistribution returns the logging policy's per-ISP decision
// distribution implied by the paper's client counts: ArrowClients on
// each of the two "arrow" configurations and RareClients on the two
// remaining ones.
func (w World) oldDistribution(isp ISP) []core.Weighted[Config] {
	// Arrows for both ISPs: the correlated paths (FE-1,BE-1) and
	// (FE-2,BE-2). The skew — frontends and backends almost perfectly
	// correlated in the trace — is what starves the structure learner
	// of the data needed to separate their effects.
	total := float64(2*w.ArrowClients + 2*w.RareClients)
	arrow := float64(w.ArrowClients) / total
	rare := float64(w.RareClients) / total
	return []core.Weighted[Config]{
		{Decision: Config{0, 0}, Prob: arrow},
		{Decision: Config{1, 1}, Prob: arrow},
		{Decision: Config{0, 1}, Prob: rare},
		{Decision: Config{1, 0}, Prob: rare},
	}
}

// OldPolicy returns the logging policy.
func (w World) OldPolicy() core.Policy[Request, Config] {
	return core.FuncPolicy[Request, Config](func(r Request) []core.Weighted[Config] {
		return w.oldDistribution(r.ISP)
	})
}

// NewPolicy returns the paper's target policy: "the same traffic
// pattern, except that 50% of ISP-1 clients use FE-1 and BE-2".
func (w World) NewPolicy() core.Policy[Request, Config] {
	moved := core.DeterministicPolicy[Request, Config]{Choose: func(Request) Config {
		return Config{FE: 0, BE: 1}
	}}
	return core.FuncPolicy[Request, Config](func(r Request) []core.Weighted[Config] {
		if r.ISP != ISP1 {
			return w.oldDistribution(r.ISP)
		}
		mix := core.MixturePolicy[Request, Config]{A: moved, B: w.OldPolicy(), Alpha: 0.5}
		return mix.Distribution(r)
	})
}

// Data is one collected scenario instance.
type Data struct {
	Trace    core.Trace[Request, Config]
	Contexts []Request
	World    World
}

// Collect builds the logged trace with the paper's deterministic client
// counts: for each ISP, ArrowClients requests on each arrow
// configuration and RareClients on each remaining configuration, with
// propensities given by the implied logging distribution.
func Collect(w World, rng *mathx.RNG) (*Data, error) {
	if w.ArrowClients <= 0 || w.RareClients <= 0 {
		return nil, errors.New("cdnsim: client counts must be positive")
	}
	if w.LongMs <= w.ShortMs {
		return nil, errors.New("cdnsim: LongMs must exceed ShortMs")
	}
	d := &Data{World: w}
	for _, isp := range []ISP{ISP1, ISP2} {
		req := Request{ISP: isp}
		for _, wc := range w.oldDistribution(isp) {
			count := w.RareClients
			if wc.Prob > 0.1 { // arrow configurations
				count = w.ArrowClients
			}
			for i := 0; i < count; i++ {
				d.Contexts = append(d.Contexts, req)
				d.Trace = append(d.Trace, core.Record[Request, Config]{
					Context:    req,
					Decision:   wc.Decision,
					Reward:     w.DrawResponse(req, wc.Decision, rng),
					Propensity: wc.Prob,
				})
			}
		}
	}
	return d, nil
}

// GroundTruth returns the exact expected response time of a policy over
// the logged request mix.
func (d *Data) GroundTruth(p core.Policy[Request, Config]) float64 {
	return core.TrueValue(d.Contexts, p, func(r Request, c Config) float64 {
		return d.World.MeanResponse(r, c)
	})
}

// WISEModel learns a WISE-style CBN from the trace and wraps it as a
// reward model predicting expected response time for any (request,
// config) pair.
//
// The network has four discrete nodes — ISP, FE, BE and a binarized
// response time — and is learned by BIC hill climbing with response time
// constrained to be a sink. maxParents caps the in-degree (the paper's
// "incomplete CBN" arises from such complexity control plus the skewed
// trace); 2 reproduces Figure 4's failure, 3 allows the full
// interaction.
func (d *Data) WISEModel(maxParents int) (core.RewardModel[Request, Config], error) {
	if maxParents <= 0 {
		maxParents = 2
	}
	vars := []cbn.Variable{
		{Name: "ISP", Card: 2},
		{Name: "FE", Card: 2},
		{Name: "BE", Card: 2},
		{Name: "RT", Card: 2},
	}
	net, err := cbn.New(vars)
	if err != nil {
		return nil, err
	}
	threshold := (d.World.ShortMs + d.World.LongMs) / 2
	samples := make([][]int, len(d.Trace))
	for i, rec := range d.Trace {
		rt := 0
		if rec.Reward > threshold {
			rt = 1
		}
		samples[i] = []int{int(rec.Context.ISP), rec.Decision.FE, rec.Decision.BE, rt}
	}
	// Response time is an effect, never a cause.
	forbidden := [][2]int{{3, 0}, {3, 1}, {3, 2}}
	if err := net.LearnStructure(samples, cbn.LearnOptions{
		MaxParents: maxParents,
		Forbidden:  forbidden,
	}); err != nil {
		return nil, err
	}
	stateValues := []float64{d.World.ShortMs, d.World.LongMs}
	rtIdx := net.Index("RT")
	return core.RewardFunc[Request, Config](func(r Request, c Config) float64 {
		ev := map[int]int{0: int(r.ISP), 1: c.FE, 2: c.BE}
		v, err := net.Expectation(rtIdx, ev, stateValues)
		if err != nil {
			// Zero-probability evidence under the learned structure:
			// fall back to the marginal expectation.
			if v2, err2 := net.Expectation(rtIdx, nil, stateValues); err2 == nil {
				return v2
			}
			return (d.World.ShortMs + d.World.LongMs) / 2
		}
		return v
	}), nil
}

// String describes the world.
func (w World) String() string {
	return fmt.Sprintf("cdnsim world: short=%.0fms long=%.0fms arrows=%d rare=%d",
		w.ShortMs, w.LongMs, w.ArrowClients, w.RareClients)
}
