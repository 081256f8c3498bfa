// Package worldstate addresses the paper's "system state of the world"
// challenge (§4.1, §4.3): a trace collected under one network state
// (e.g. early-morning load) is used to evaluate a policy intended for a
// different state (e.g. peak hours). The package provides transition
// functions between states — affine reward maps, of which the paper's
// "degrade the performance in the trace by 20%" is Transition{Slope:
// 0.8}, and per-group offsets fitted from a few calibration samples per
// state — plus trace transformation so the DR estimator can run on
// state-corrected rewards.
package worldstate

import (
	"errors"
	"fmt"

	"drnet/internal/core"
)

// Transition is an affine reward map between two network states:
// targetReward ≈ Slope·sourceReward + Intercept.
type Transition struct {
	Slope, Intercept float64
}

// Apply maps a source-state reward to the target state.
func (t Transition) Apply(r float64) float64 {
	return t.Slope*r + t.Intercept
}

// Sample is one calibration observation: a reward measured in some
// state, labeled with the group it belongs to (typically the decision,
// e.g. the server used). FitPerGroup compares group means across
// states.
type Sample struct {
	Group  string
	Reward float64
}

func groupMeans(samples []Sample) (map[string]float64, error) {
	if len(samples) == 0 {
		return nil, errors.New("no samples")
	}
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, s := range samples {
		sums[s.Group] += s.Reward
		counts[s.Group]++
	}
	out := make(map[string]float64, len(sums))
	for g, s := range sums {
		out[g] = s / float64(counts[g])
	}
	return out, nil
}

// GroupTransitions maps group keys to their own transitions. A single
// global affine map assumes the state shift is a function of the reward
// level alone; when the shift is group-specific (e.g. one server
// saturates at peak while another barely degrades), per-group
// transitions are required.
type GroupTransitions map[string]Transition

// FitPerGroup estimates one offset transition per group common to the
// source and target calibration sets: target_g ≈ source_g + δ_g, where
// δ_g is the difference of group means. Groups present in only one
// state are skipped. At least one common group is required.
func FitPerGroup(source, target []Sample) (GroupTransitions, error) {
	srcMeans, err := groupMeans(source)
	if err != nil {
		return nil, fmt.Errorf("worldstate: source: %w", err)
	}
	tgtMeans, err := groupMeans(target)
	if err != nil {
		return nil, fmt.Errorf("worldstate: target: %w", err)
	}
	out := make(GroupTransitions)
	for g, sm := range srcMeans {
		if tm, ok := tgtMeans[g]; ok {
			out[g] = Transition{Slope: 1, Intercept: tm - sm}
		}
	}
	if len(out) == 0 {
		return nil, errors.New("worldstate: no groups common to both states")
	}
	return out, nil
}

// TransformTraceGrouped maps each record's reward through its group's
// transition. Records whose group has no fitted transition keep their
// reward and are counted in skipped.
func TransformTraceGrouped[C any, D comparable](t core.Trace[C, D], trs GroupTransitions, key func(c C, d D) string) (out core.Trace[C, D], skipped int) {
	out = make(core.Trace[C, D], len(t))
	copy(out, t)
	for i := range out {
		tr, ok := trs[key(out[i].Context, out[i].Decision)]
		if !ok {
			skipped++
			continue
		}
		out[i].Reward = tr.Apply(out[i].Reward)
	}
	return out, skipped
}

// TransformTrace returns a copy of the trace with every reward mapped
// through the transition — the state-corrected trace the paper proposes
// feeding to the DR estimator ("create a new trace by degrading the
// performance in the trace ... and use the DR estimator on the new
// trace").
func TransformTrace[C any, D comparable](t core.Trace[C, D], tr Transition) core.Trace[C, D] {
	out := make(core.Trace[C, D], len(t))
	copy(out, t)
	for i := range out {
		out[i].Reward = tr.Apply(out[i].Reward)
	}
	return out
}

// CalibrationFromTrace converts trace records into calibration samples,
// grouped by a key of (context, decision). The common choice is the
// decision alone (e.g. server identity).
func CalibrationFromTrace[C any, D comparable](t core.Trace[C, D], key func(c C, d D) string) []Sample {
	out := make([]Sample, len(t))
	for i, rec := range t {
		out[i] = Sample{Group: key(rec.Context, rec.Decision), Reward: rec.Reward}
	}
	return out
}
