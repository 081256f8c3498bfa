// Package coupling reproduces the paper's "hidden decision–reward
// coupling" challenge (§4.1) and its §4.3 remedy: in a network, the
// logging policy's own assignments induce load that degrades later
// rewards on the same server. A trace therefore mixes records from
// different self-induced system states, and a naive DR estimate pools
// them. The remedy sketched in §4.3 — monitor a per-server load proxy,
// detect state changes (change-point detection), and use only the
// records whose state matches the target state — is implemented here on
// top of internal/changepoint.
package coupling

import (
	"errors"
	"fmt"
	"sort"

	"drnet/internal/changepoint"
	"drnet/internal/core"
	"drnet/internal/mathx"
	"drnet/internal/netsim"
)

// Step is one timeline entry of the logged trace: the record plus the
// per-server induced-load proxy observed when the decision was made.
// The proxy is exactly the kind of domain-specific metric §4.3 proposes
// monitoring.
type Step struct {
	Rec core.Record[int, int]
	// Loads[s] is server s's induced load at decision time.
	Loads []float64
}

// Scenario is the E5 world: two-phase logging on servers with
// self-induced load feedback.
type Scenario struct {
	// Servers are the candidate servers.
	Servers []netsim.Server
	// HoldTicks is how many subsequent arrivals an assignment keeps
	// loading its server (session duration in arrival units).
	HoldTicks int
	// PhaseSwitch is the fraction of the trace after which the logging
	// policy shifts its traffic (the self-inflicted state change).
	PhaseSwitch float64
	// ShiftTarget is the server that receives concentrated traffic in
	// phase 2.
	ShiftTarget int
	// ShiftProb is the probability mass phase 2 puts on ShiftTarget.
	ShiftProb float64
	// NumClasses is the number of client classes.
	NumClasses int
	// AffinityStd scales per-(class, server) offsets.
	AffinityStd float64
	// NoiseStd is per-session reward noise.
	NoiseStd float64
	// HalfLifeMs converts latency to QoE.
	HalfLifeMs float64

	affinity [][]float64
}

// DefaultScenario returns a two-server world where phase 2 overloads
// server 0.
func DefaultScenario() *Scenario {
	return &Scenario{
		Servers: []netsim.Server{
			{Name: "a", Capacity: 60, BaseLatency: 15},
			{Name: "b", Capacity: 80, BaseLatency: 25},
		},
		HoldTicks:   40,
		PhaseSwitch: 0.5,
		ShiftTarget: 0,
		ShiftProb:   0.9,
		NumClasses:  3,
		AffinityStd: 0.05,
		NoiseStd:    0.02,
		HalfLifeMs:  60,
	}
}

// Init draws the class-server affinities.
func (s *Scenario) Init(rng *mathx.RNG) error {
	if len(s.Servers) < 2 {
		return errors.New("coupling: need at least two servers")
	}
	if s.HoldTicks < 1 {
		return errors.New("coupling: HoldTicks must be >= 1")
	}
	if s.PhaseSwitch <= 0 || s.PhaseSwitch >= 1 {
		return errors.New("coupling: PhaseSwitch must be in (0,1)")
	}
	if s.ShiftTarget < 0 || s.ShiftTarget >= len(s.Servers) {
		return errors.New("coupling: ShiftTarget out of range")
	}
	if s.ShiftProb <= 0 || s.ShiftProb >= 1 {
		return errors.New("coupling: ShiftProb must be in (0,1)")
	}
	if s.NumClasses < 1 {
		return errors.New("coupling: need at least one class")
	}
	s.affinity = make([][]float64, s.NumClasses)
	for c := range s.affinity {
		s.affinity[c] = make([]float64, len(s.Servers))
		for v := range s.affinity[c] {
			s.affinity[c][v] = rng.Normal(0, s.AffinityStd)
		}
	}
	return nil
}

// RewardAtLoads is the expected QoE of class c on server v given the
// current per-server induced loads.
func (s *Scenario) RewardAtLoads(c, v int, loads []float64) float64 {
	if s.affinity == nil {
		panic("coupling: scenario not initialized")
	}
	lat := s.Servers[v].Latency(loads[v])
	return netsim.QoE(lat, s.HalfLifeMs) + s.affinity[c][v]
}

// phaseDist returns the logging policy's distribution in the given
// phase.
func (s *Scenario) phaseDist(phase2 bool) []float64 {
	k := len(s.Servers)
	probs := make([]float64, k)
	if !phase2 {
		for i := range probs {
			probs[i] = 1 / float64(k)
		}
		return probs
	}
	rest := (1 - s.ShiftProb) / float64(k-1)
	for i := range probs {
		probs[i] = rest
	}
	probs[s.ShiftTarget] = s.ShiftProb
	return probs
}

// Run simulates n sequential arrivals: phase 1 spreads traffic
// uniformly; after PhaseSwitch·n arrivals the policy concentrates
// ShiftProb of traffic on ShiftTarget, self-inducing load that degrades
// that server's subsequent rewards. Propensities reflect the
// phase-specific distribution actually used.
func (s *Scenario) Run(n int, rng *mathx.RNG) ([]Step, error) {
	if s.affinity == nil {
		return nil, errors.New("coupling: scenario not initialized (call Init)")
	}
	if n <= 0 {
		return nil, errors.New("coupling: need at least one arrival")
	}
	lt, err := netsim.NewLoadTracker(s.HoldTicks)
	if err != nil {
		return nil, err
	}
	switchAt := int(s.PhaseSwitch * float64(n))
	steps := make([]Step, 0, n)
	for i := 0; i < n; i++ {
		probs := s.phaseDist(i >= switchAt)
		v := rng.Categorical(probs)
		loads := make([]float64, len(s.Servers))
		for j := range s.Servers {
			loads[j] = lt.Load(s.Servers[j].Name)
		}
		c := rng.Intn(s.NumClasses)
		steps = append(steps, Step{
			Rec: core.Record[int, int]{
				Context:    c,
				Decision:   v,
				Reward:     s.RewardAtLoads(c, v, loads) + rng.Normal(0, s.NoiseStd),
				Propensity: probs[v],
			},
			Loads: loads,
		})
		lt.Assign(s.Servers[v].Name)
		lt.Tick()
	}
	return steps, nil
}

// SteadyStateLoads returns the expected induced loads under a given
// assignment distribution: load_s = HoldTicks · P(s).
func (s *Scenario) SteadyStateLoads(probs []float64) []float64 {
	out := make([]float64, len(probs))
	for i, p := range probs {
		out[i] = float64(s.HoldTicks) * p
	}
	return out
}

// Phase1Loads returns the steady-state loads of the uniform phase-1
// policy — the "low load" system state the evaluation targets.
func (s *Scenario) Phase1Loads() []float64 {
	return s.SteadyStateLoads(s.phaseDist(false))
}

// GroundTruth returns the exact expected reward of a policy over the
// logged contexts, with the system held in the given load state.
func (s *Scenario) GroundTruth(steps []Step, p core.Policy[int, int], loads []float64) float64 {
	contexts := make([]int, len(steps))
	for i, st := range steps {
		contexts[i] = st.Rec.Context
	}
	return core.TrueValue(contexts, p, func(c, v int) float64 {
		return s.RewardAtLoads(c, v, loads)
	})
}

// NewPolicy is the target policy under evaluation: send every client to
// the server with the best low-load reward for its class (which is
// typically the ShiftTarget — the server the logging policy degraded in
// phase 2).
func (s *Scenario) NewPolicy() core.Policy[int, int] {
	loads := s.Phase1Loads()
	return core.DeterministicPolicy[int, int]{Choose: func(c int) int {
		best, bestV := 0, -1e300
		for v := range s.Servers {
			if r := s.RewardAtLoads(c, v, loads); r > bestV {
				bestV, best = r, v
			}
		}
		return best
	}}
}

// Trace extracts the plain off-policy trace (dropping proxy metrics).
func Trace(steps []Step) core.Trace[int, int] {
	out := make(core.Trace[int, int], len(steps))
	for i, st := range steps {
		out[i] = st.Rec
	}
	return out
}

// DetectStates segments the timeline by running PELT change-point
// detection on the monitored server's load proxy and labels each step
// with its segment index. penalty <= 0 selects the BIC default.
func DetectStates(steps []Step, server int, penalty float64) ([]int, error) {
	if len(steps) == 0 {
		return nil, errors.New("coupling: no steps")
	}
	if server < 0 || server >= len(steps[0].Loads) {
		return nil, fmt.Errorf("coupling: server %d out of range", server)
	}
	series := make([]float64, len(steps))
	for i, st := range steps {
		series[i] = st.Loads[server]
	}
	if penalty <= 0 {
		penalty = changepoint.BICPenalty(len(series), 2) * mathx.Variance(series) / 4
		if penalty <= 0 {
			penalty = changepoint.BICPenalty(len(series), 2)
		}
	}
	cps, err := changepoint.PELT(len(series), changepoint.MeanCost(series), penalty, 20)
	if err != nil {
		return nil, err
	}
	return changepoint.Labels(len(series), cps), nil
}

// MatchState keeps the steps from every segment whose mean monitored
// load is within tol of the target load — the paper's "use the empirical
// data in the trace when the network states match". When no segment
// falls within the tolerance the single closest segment is used. tol <=
// 0 defaults to 25% of the target load.
func MatchState(steps []Step, labels []int, server int, targetLoad, tol float64) (core.Trace[int, int], error) {
	if len(steps) != len(labels) {
		return nil, errors.New("coupling: labels/steps length mismatch")
	}
	if len(steps) == 0 {
		return nil, errors.New("coupling: no steps")
	}
	if tol <= 0 {
		tol = 0.25 * targetLoad
		if tol <= 0 {
			tol = 1
		}
	}
	// Mean load per segment.
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for i, st := range steps {
		sums[labels[i]] += st.Loads[server]
		counts[labels[i]]++
	}
	// Segments in label order, so equal distances go to the lower label.
	segs := make([]int, 0, len(sums))
	for seg := range sums {
		segs = append(segs, seg)
	}
	sort.Ints(segs)
	keep := make(map[int]bool)
	best, bestDist := -1, 0.0
	for _, seg := range segs {
		mean := sums[seg] / float64(counts[seg])
		dist := mean - targetLoad
		if dist < 0 {
			dist = -dist
		}
		if dist <= tol {
			keep[seg] = true
		}
		if best < 0 || dist < bestDist {
			best, bestDist = seg, dist
		}
	}
	if len(keep) == 0 {
		keep[best] = true
	}
	var out core.Trace[int, int]
	for i, st := range steps {
		if keep[labels[i]] {
			out = append(out, st.Rec)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("coupling: matched segment is empty")
	}
	return out, nil
}
