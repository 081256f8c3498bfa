// Package cfa reproduces the paper's Figure 5 / Figure 7c scenario,
// modeled on CFA [15]: clients described by categorical feature vectors
// are assigned a CDN and a bitrate; video quality depends on
// feature–decision interactions. The logged trace comes from a policy
// that assigns clients to CDNs/bitrates uniformly at random (as in the
// original CFA work), and the CFA-style evaluator estimates a new
// assignment's quality from the subset of clients whose logged decision
// matches it — unbiased, but starved of data as the decision space
// grows ("curse of dimensionality", §2.2.2).
package cfa

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"drnet/internal/core"
	"drnet/internal/knn"
	"drnet/internal/mathx"
)

// Client is a featurized client-context: categorical features such as
// ASN, city, device, player type, encoded as small integers.
type Client struct {
	Features []int
}

// Key encodes the feature vector, the only field a Client has: clients
// with equal keys are indistinguishable to every policy and model, so
// it is a faithful key for core.NewTraceViewKeyed.
func (c Client) Key() string {
	var b strings.Builder
	for _, f := range c.Features {
		b.WriteString(strconv.Itoa(f))
		b.WriteByte(',')
	}
	return b.String()
}

// Decision is a joint CDN and bitrate assignment.
type Decision struct {
	CDN     int
	Bitrate int
}

// World defines the scenario's ground truth.
type World struct {
	// NumFeatures is the client feature dimensionality.
	NumFeatures int
	// Cardinality is the number of values per feature.
	Cardinality int
	// NumCDNs and NumBitrates span the decision space.
	NumCDNs, NumBitrates int
	// InteractingFeatures is how many leading features interact with
	// the decision in the ground-truth quality (the rest are noise
	// dimensions that only hurt models).
	InteractingFeatures int
	// NoiseStd is the quality measurement noise.
	NoiseStd float64
	// ClientEffectStd scales decision-independent per-client quality
	// effects (e.g. last-mile capacity): heterogeneity that inflates
	// the variance of matching-based evaluators but is absorbed by any
	// reasonable reward model. Zero disables it.
	ClientEffectStd float64

	base         map[Decision]float64
	interact     []map[int]map[Decision]float64 // [featureIdx][value][decision]
	clientEffect []map[int]float64              // [featureIdx][value]
}

// DefaultWorld mirrors the scale of the paper's Figure 7c setup: a
// moderately rich feature space and a 3×4 decision grid.
func DefaultWorld() World {
	return World{
		NumFeatures:         4,
		Cardinality:         3,
		NumCDNs:             3,
		NumBitrates:         4,
		InteractingFeatures: 3,
		NoiseStd:            0.4,
		ClientEffectStd:     3.0,
	}
}

// Decisions enumerates the CDN×bitrate grid.
func (w *World) Decisions() []Decision {
	out := make([]Decision, 0, w.NumCDNs*w.NumBitrates)
	for c := 0; c < w.NumCDNs; c++ {
		for b := 0; b < w.NumBitrates; b++ {
			out = append(out, Decision{CDN: c, Bitrate: b})
		}
	}
	return out
}

// Init materializes the random ground-truth quality tables. It must be
// called once before use; the RNG seed determines the world.
func (w *World) Init(rng *mathx.RNG) error {
	if w.NumFeatures <= 0 || w.Cardinality < 2 || w.NumCDNs <= 0 || w.NumBitrates <= 0 {
		return errors.New("cfa: invalid world dimensions")
	}
	if w.InteractingFeatures < 0 || w.InteractingFeatures > w.NumFeatures {
		return errors.New("cfa: InteractingFeatures out of range")
	}
	w.base = make(map[Decision]float64)
	for _, d := range w.Decisions() {
		// A positive baseline keeps expected quality away from zero
		// (relative error is the paper's metric); higher bitrates are
		// generically better and CDNs differ.
		w.base[d] = 3 + 0.3*float64(d.Bitrate) + rng.Normal(0, 0.5)
	}
	w.interact = make([]map[int]map[Decision]float64, w.InteractingFeatures)
	for j := range w.interact {
		w.interact[j] = make(map[int]map[Decision]float64)
		for v := 0; v < w.Cardinality; v++ {
			m := make(map[Decision]float64)
			for _, d := range w.Decisions() {
				m[d] = rng.Normal(0, 0.8)
			}
			w.interact[j][v] = m
		}
	}
	w.clientEffect = make([]map[int]float64, w.InteractingFeatures)
	scale := w.ClientEffectStd
	if w.InteractingFeatures > 1 {
		scale /= math.Sqrt(float64(w.InteractingFeatures))
	}
	for j := range w.clientEffect {
		w.clientEffect[j] = make(map[int]float64)
		for v := 0; v < w.Cardinality; v++ {
			w.clientEffect[j][v] = rng.Normal(0, scale)
		}
	}
	return nil
}

// TrueQuality returns the noise-free expected quality of a decision for
// a client.
func (w *World) TrueQuality(c Client, d Decision) float64 {
	if w.base == nil {
		panic("cfa: world not initialized")
	}
	q := w.base[d]
	for j := 0; j < w.InteractingFeatures; j++ {
		q += w.interact[j][c.Features[j]][d]
		q += w.clientEffect[j][c.Features[j]]
	}
	return q
}

// DrawQuality samples a noisy quality measurement.
func (w *World) DrawQuality(c Client, d Decision, rng *mathx.RNG) float64 {
	return w.TrueQuality(c, d) + rng.Normal(0, w.NoiseStd)
}

// SampleClients draws n clients uniformly over the feature space.
func (w *World) SampleClients(n int, rng *mathx.RNG) []Client {
	out := make([]Client, n)
	for i := range out {
		f := make([]int, w.NumFeatures)
		for j := range f {
			f[j] = rng.Intn(w.Cardinality)
		}
		out[i] = Client{Features: f}
	}
	return out
}

// OldPolicy is CFA's logging policy: uniformly random CDN and bitrate.
func (w *World) OldPolicy() core.Policy[Client, Decision] {
	return core.UniformPolicy[Client, Decision]{Decisions: w.Decisions()}
}

// NewPolicy returns a plausible data-driven target assignment: for each
// client it picks the decision maximizing a perturbed version of the
// true quality (as if a prediction system had learned the interactions
// imperfectly). perturbStd controls how far from optimal it is; the
// perturbation is drawn once per (feature-profile, decision) via a
// deterministic hash-free table, so the policy is a fixed function.
func (w *World) NewPolicy(perturbStd float64, rng *mathx.RNG) core.Policy[Client, Decision] {
	// Per-decision global perturbation plus a per-interacting-value
	// perturbation: deterministic once drawn.
	perturb := make(map[Decision]float64)
	for _, d := range w.Decisions() {
		perturb[d] = rng.Normal(0, perturbStd)
	}
	vperturb := make([]map[int]map[Decision]float64, w.InteractingFeatures)
	for j := range vperturb {
		vperturb[j] = make(map[int]map[Decision]float64)
		for v := 0; v < w.Cardinality; v++ {
			m := make(map[Decision]float64)
			for _, d := range w.Decisions() {
				m[d] = rng.Normal(0, perturbStd)
			}
			vperturb[j][v] = m
		}
	}
	return core.DeterministicPolicy[Client, Decision]{Choose: func(c Client) Decision {
		best := Decision{}
		bestV := -1e300
		for _, d := range w.Decisions() {
			v := w.TrueQuality(c, d) + perturb[d]
			for j := 0; j < w.InteractingFeatures; j++ {
				v += vperturb[j][c.Features[j]][d]
			}
			if v > bestV {
				bestV, best = v, d
			}
		}
		return best
	}}
}

// Data is one collected scenario instance.
type Data struct {
	Trace    core.Trace[Client, Decision]
	Contexts []Client
	World    *World
}

// Collect logs n clients under the uniform-random old policy.
func (w *World) Collect(n int, rng *mathx.RNG) (*Data, error) {
	if w.base == nil {
		return nil, errors.New("cfa: world not initialized (call Init)")
	}
	if n <= 0 {
		return nil, errors.New("cfa: need at least one client")
	}
	clients := w.SampleClients(n, rng)
	trace := core.CollectTrace(clients, w.OldPolicy(), func(c Client, d Decision) float64 {
		return w.DrawQuality(c, d, rng)
	}, rng)
	return &Data{Trace: trace, Contexts: clients, World: w}, nil
}

// GroundTruth returns the exact expected quality of a policy over the
// logged clients.
func (d *Data) GroundTruth(p core.Policy[Client, Decision]) float64 {
	return core.TrueValue(d.Contexts, p, d.World.TrueQuality)
}

// featurize encodes a (client, decision) pair for the k-NN model:
// client features followed by the decision coordinates, all categorical,
// matched with the Hamming metric.
func featurize(c Client, d Decision) []float64 {
	out := make([]float64, 0, len(c.Features)+2)
	for _, f := range c.Features {
		out = append(out, float64(f))
	}
	return append(out, float64(d.CDN), float64(d.Bitrate))
}

// KNNModel fits the k-NN reward model the paper uses as the DM for
// Figure 7c ("DM estimates are based on a k-NN model trained by the
// trace").
func (d *Data) KNNModel(k int) (core.RewardModel[Client, Decision], error) {
	if k <= 0 {
		k = 5
	}
	x := make([][]float64, len(d.Trace))
	y := make([]float64, len(d.Trace))
	for i, rec := range d.Trace {
		x[i] = featurize(rec.Context, rec.Decision)
		y[i] = rec.Reward
	}
	reg, err := knn.Fit(x, y, knn.Options{K: k, Metric: knn.Hamming})
	if err != nil {
		return nil, err
	}
	return core.RewardFunc[Client, Decision](func(c Client, dec Decision) float64 {
		v, err := reg.Predict(featurize(c, dec))
		if err != nil {
			return 0
		}
		return v
	}), nil
}

// PerDecisionKNNModel fits one k-NN regressor per decision, each over
// client features only. Restricting neighbours to records that took the
// same decision mirrors how CFA groups sessions and gives a much less
// biased Direct Method than a joint model: a prediction for (c, d) never
// mixes in rewards earned under other decisions. Decisions with no
// training records fall back to the global mean reward.
func (d *Data) PerDecisionKNNModel(k int) (core.RewardModel[Client, Decision], error) {
	if k <= 0 {
		k = 5
	}
	type bucket struct {
		x [][]float64
		y []float64
	}
	buckets := make(map[Decision]*bucket)
	for _, rec := range d.Trace {
		b, ok := buckets[rec.Decision]
		if !ok {
			b = &bucket{}
			buckets[rec.Decision] = b
		}
		f := make([]float64, len(rec.Context.Features))
		for j, v := range rec.Context.Features {
			f[j] = float64(v)
		}
		b.x = append(b.x, f)
		b.y = append(b.y, rec.Reward)
	}
	models := make(map[Decision]*knn.Regressor, len(buckets))
	for dec, b := range buckets {
		reg, err := knn.Fit(b.x, b.y, knn.Options{K: k, Metric: knn.Hamming})
		if err != nil {
			return nil, err
		}
		models[dec] = reg
	}
	fallback := d.Trace.MeanReward()
	return core.RewardFunc[Client, Decision](func(c Client, dec Decision) float64 {
		reg, ok := models[dec]
		if !ok {
			return fallback
		}
		f := make([]float64, len(c.Features))
		for j, v := range c.Features {
			f[j] = float64(v)
		}
		v, err := reg.Predict(f)
		if err != nil {
			return fallback
		}
		return v
	}), nil
}

// String describes the world.
func (w *World) String() string {
	return fmt.Sprintf("cfa world: %d features × %d values, %d CDNs × %d bitrates",
		w.NumFeatures, w.Cardinality, w.NumCDNs, w.NumBitrates)
}
