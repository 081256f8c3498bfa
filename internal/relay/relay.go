// Package relay reproduces the paper's Figure 3 scenario, modeled on
// VIA [14]: VoIP calls between AS pairs can be routed directly or
// through a relay. The logging policy relays (almost) only calls from
// NAT-ed hosts — a selection bias — so the observed relay performance is
// contaminated by the NAT hosts' worse last-mile conditions. A VIA-style
// evaluator that estimates relay performance from same-AS-pair calls
// (ignoring the NAT feature) therefore misjudges relaying for public-IP
// callers; DR with known propensities corrects it.
package relay

import (
	"errors"
	"fmt"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

// Path is the routing decision for a call.
type Path int

// The two routing decisions.
const (
	Direct Path = iota
	Relayed
)

// String implements fmt.Stringer.
func (p Path) String() string {
	if p == Direct {
		return "direct"
	}
	return "relayed"
}

// Paths enumerates the decision space.
func Paths() []Path { return []Path{Direct, Relayed} }

// Call is the client-context: an AS pair plus whether the caller is
// behind a NAT.
type Call struct {
	SrcAS, DstAS int
	NAT          bool
}

// World holds the scenario's ground truth.
type World struct {
	// NumAS is the number of ASes; AS pairs index congestion.
	NumAS int
	// CongestedFrac is the fraction of AS pairs with heavy congestion
	// on the direct path.
	CongestedFrac float64
	// CongestionPenalty is the quality lost to congestion on a direct
	// path (relaying bypasses most of it).
	CongestionPenalty float64
	// RelayBypass is the fraction of the congestion penalty that
	// remains when relayed (small: the relay avoids the congested
	// middle mile).
	RelayBypass float64
	// RelayOverhead is the fixed quality cost of the longer relay path.
	RelayOverhead float64
	// NATPenalty is the quality lost by NAT-ed hosts (worse last-mile,
	// cited from [22]) regardless of routing.
	NATPenalty float64
	// NATFrac is the fraction of calls from NAT-ed hosts.
	NATFrac float64
	// NoiseStd is the per-call quality noise.
	NoiseStd float64
	// Epsilon is the logging policy's exploration probability.
	Epsilon float64

	congested map[[2]int]bool
}

// DefaultWorld returns a Figure 3-scale world.
func DefaultWorld() World {
	return World{
		NumAS:             8,
		CongestedFrac:     0.4,
		CongestionPenalty: 1.5,
		RelayBypass:       0.2,
		RelayOverhead:     0.2,
		NATPenalty:        0.8,
		NATFrac:           0.5,
		NoiseStd:          0.2,
		Epsilon:           0.1,
	}
}

// Init draws which AS pairs are congested.
func (w *World) Init(rng *mathx.RNG) error {
	if w.NumAS < 2 {
		return errors.New("relay: need at least two ASes")
	}
	if w.Epsilon <= 0 || w.Epsilon >= 1 {
		return errors.New("relay: Epsilon must be in (0,1)")
	}
	w.congested = make(map[[2]int]bool)
	for a := 0; a < w.NumAS; a++ {
		for b := 0; b < w.NumAS; b++ {
			if a != b && rng.Float64() < w.CongestedFrac {
				w.congested[[2]int{a, b}] = true
			}
		}
	}
	return nil
}

// Congested reports whether the direct path between the AS pair is
// congested.
func (w *World) Congested(src, dst int) bool {
	if w.congested == nil {
		panic("relay: world not initialized")
	}
	return w.congested[[2]int{src, dst}]
}

// TrueQuality returns the expected call quality (MOS-like, ~[1,5]) for a
// call and routing decision.
func (w *World) TrueQuality(c Call, p Path) float64 {
	q := 4.5
	if w.Congested(c.SrcAS, c.DstAS) {
		pen := w.CongestionPenalty
		if p == Relayed {
			pen *= w.RelayBypass
		}
		q -= pen
	}
	if p == Relayed {
		q -= w.RelayOverhead
	}
	if c.NAT {
		q -= w.NATPenalty
	}
	return q
}

// DrawQuality samples a noisy call quality.
func (w *World) DrawQuality(c Call, p Path, rng *mathx.RNG) float64 {
	return w.TrueQuality(c, p) + rng.Normal(0, w.NoiseStd)
}

// OldPolicy is the biased logging policy of Figure 3: NAT-ed callers are
// relayed, public-IP callers go direct, with ε exploration keeping both
// decisions' propensities positive.
func (w *World) OldPolicy() core.Policy[Call, Path] {
	return core.EpsilonGreedyPolicy[Call, Path]{
		Base: func(c Call) Path {
			if c.NAT {
				return Relayed
			}
			return Direct
		},
		Decisions: Paths(),
		Epsilon:   w.Epsilon,
	}
}

// NewPolicy is the target policy of the Figure 3 question: relay every
// call, NAT-ed or not. Evaluating it offline requires predicting relay
// performance for public-IP callers, which is exactly where the
// logging policy's NAT selection bias misleads a NAT-blind model.
func (w *World) NewPolicy() core.Policy[Call, Path] {
	return core.DeterministicPolicy[Call, Path]{Choose: func(Call) Path {
		return Relayed
	}}
}

// SampleCalls draws n calls with uniform AS pairs and the configured NAT
// fraction.
func (w *World) SampleCalls(n int, rng *mathx.RNG) []Call {
	out := make([]Call, n)
	for i := range out {
		src := rng.Intn(w.NumAS)
		dst := rng.Intn(w.NumAS - 1)
		if dst >= src {
			dst++
		}
		out[i] = Call{SrcAS: src, DstAS: dst, NAT: rng.Bernoulli(w.NATFrac)}
	}
	return out
}

// Data is one collected scenario instance.
type Data struct {
	Trace    core.Trace[Call, Path]
	Contexts []Call
	World    *World
}

// Collect logs n calls under the biased old policy.
func (w *World) Collect(n int, rng *mathx.RNG) (*Data, error) {
	if w.congested == nil {
		return nil, errors.New("relay: world not initialized (call Init)")
	}
	if n <= 0 {
		return nil, errors.New("relay: need at least one call")
	}
	calls := w.SampleCalls(n, rng)
	trace := core.CollectTrace(calls, w.OldPolicy(), func(c Call, p Path) float64 {
		return w.DrawQuality(c, p, rng)
	}, rng)
	return &Data{Trace: trace, Contexts: calls, World: w}, nil
}

// GroundTruth returns the exact expected quality of a policy on the
// logged calls.
func (d *Data) GroundTruth(p core.Policy[Call, Path]) float64 {
	return core.TrueValue(d.Contexts, p, d.World.TrueQuality)
}

// VIAModel is the Figure 3 evaluator's reward model: mean observed
// quality per (AS pair, path) group, ignoring the NAT feature. Because
// the old policy relays almost exclusively NAT-ed callers, the relay
// cells are contaminated by the NAT penalty and the direct cells by its
// absence.
func (d *Data) VIAModel() core.RewardModel[Call, Path] {
	return core.FitTable(d.Trace, func(c Call, p Path) string {
		return fmt.Sprintf("%d-%d/%v", c.SrcAS, c.DstAS, p)
	})
}

// FullModel adds the NAT feature to the grouping — the paper's "ideally
// we need to add in the relevant feature", at the cost of thinner cells
// (the curse of dimensionality it discusses).
func (d *Data) FullModel() core.RewardModel[Call, Path] {
	return core.FitTable(d.Trace, func(c Call, p Path) string {
		return fmt.Sprintf("%d-%d/%v/nat=%v", c.SrcAS, c.DstAS, p, c.NAT)
	})
}

// String describes the world.
func (w *World) String() string {
	return fmt.Sprintf("relay world: %d ASes, %.0f%% congested pairs, NAT penalty %.1f",
		w.NumAS, 100*w.CongestedFrac, w.NATPenalty)
}
