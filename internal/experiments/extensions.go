package experiments

import (
	"fmt"
	"math"

	"drnet/internal/cfa"
	"drnet/internal/core"
	"drnet/internal/coupling"
	"drnet/internal/mathx"
	"drnet/internal/relay"
	"drnet/internal/worldstate"
)

// banditWorld is the minimal synthetic contextual bandit used by E1–E3:
// scalar contexts in [0,1], three decisions, true reward x·(d+1).
type banditWorld struct {
	rng   *mathx.RNG
	noise float64
}

func (b *banditWorld) trueReward(x float64, d int) float64 { return x * float64(d+1) }

func (b *banditWorld) drawReward(x float64, d int) float64 {
	return b.trueReward(x, d) + b.rng.Normal(0, b.noise)
}

func (b *banditWorld) contexts(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = b.rng.Float64()
	}
	return out
}

var banditDecisions = []int{0, 1, 2}

func banditPolicy(greedy int, eps float64) core.Policy[float64, int] {
	return core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return greedy },
		Decisions: banditDecisions,
		Epsilon:   eps,
	}
}

// SecondOrderBias is experiment E1: it dials the reward-model bias and
// the propensity corruption independently and measures the absolute
// bias of DM, IPS and DR. The DR rows demonstrate the paper's
// "second-order bias" claim: DR's bias is small whenever EITHER
// ingredient is clean, and grows roughly with the product of the two
// corruption levels.
func SecondOrderBias(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 50
	}
	const n = 2000
	newPolicy := banditPolicy(2, 0.1)
	oldPolicy := banditPolicy(0, 0.5)

	type cell struct{ dm, dp float64 }
	cells := []cell{{0, 0}, {0.5, 0}, {0, 0.5}, {0.5, 0.5}, {1, 1}}
	res := Result{
		ID:    "E1",
		Title: "Second-order bias: DR bias vs model bias (δm) × propensity corruption (δp)",
		Runs:  runs,
	}
	for _, c := range cells {
		type runOut struct{ dm, ips, dr, truth float64 }
		outs, err := forEachRun(runs, seed, func(_ int, rng *mathx.RNG) (runOut, error) {
			b := &banditWorld{rng: rng, noise: 0.1}
			ctxs := b.contexts(n)
			tr := core.CollectTrace(ctxs, oldPolicy, b.drawReward, b.rng)
			truth := core.TrueValue(ctxs, newPolicy, b.trueReward)
			// Corrupt the model by an additive offset δm.
			model := core.RewardFunc[float64, int](func(x float64, d int) float64 {
				return b.trueReward(x, d) + c.dm
			})
			// Corrupt propensities multiplicatively by (1+δp).
			for i := range tr {
				tr[i].Propensity = mathx.Clamp(tr[i].Propensity*(1+c.dp), 0.01, 1)
			}
			v, err := core.NewTraceView(tr)
			if err != nil {
				return runOut{}, err
			}
			dm, err := core.DirectMethodView(v, newPolicy, model)
			if err != nil {
				return runOut{}, err
			}
			ips, err := core.IPSView(v, newPolicy, core.IPSOptions{})
			if err != nil {
				return runOut{}, err
			}
			dr, err := core.DoublyRobustView(v, newPolicy, model, core.DROptions{})
			if err != nil {
				return runOut{}, err
			}
			return runOut{dm: dm.Value, ips: ips.Value, dr: dr.Value, truth: truth}, nil
		})
		if err != nil {
			return Result{}, err
		}
		dmEst := column(outs, func(o runOut) float64 { return o.dm })
		ipsEst := column(outs, func(o runOut) float64 { return o.ips })
		drEst := column(outs, func(o runOut) float64 { return o.dr })
		truth := mathx.Mean(column(outs, func(o runOut) float64 { return o.truth }))
		bias := func(ests []float64) []float64 {
			return []float64{math.Abs(mathx.Mean(ests) - truth)}
		}
		label := fmt.Sprintf("δm=%.1f δp=%.1f", c.dm, c.dp)
		res.Rows = append(res.Rows,
			row("DM   "+label, "abs bias", bias(dmEst)),
			row("IPS  "+label, "abs bias", bias(ipsEst)),
			row("DR   "+label, "abs bias", bias(drEst)),
		)
	}
	res.Notes = append(res.Notes, "DR bias stays near zero when either δm=0 or δp=0 (double robustness); it grows only when both are corrupted")
	return res, nil
}

// RandomnessSweep is experiment E2 (§4.1 "coverage and randomness"): as
// the logging policy's exploration ε shrinks toward the deterministic
// policies common in networking, IPS/DR importance weights explode. The
// table reports relative error and mean effective sample size per ε.
func RandomnessSweep(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 50
	}
	const n = 1000
	newPolicy := banditPolicy(2, 0.05)
	res := Result{
		ID:    "E2",
		Title: "Coverage/randomness: IPS and DR vs logging-policy exploration ε",
		Runs:  runs,
	}
	for _, eps := range []float64{0.02, 0.05, 0.1, 0.3, 1.0} {
		oldPolicy := banditPolicy(0, eps)
		type runOut struct{ ips, dr, ess float64 }
		outs, err := forEachRun(runs, seed, func(_ int, rng *mathx.RNG) (runOut, error) {
			b := &banditWorld{rng: rng, noise: 0.3}
			ctxs := b.contexts(n)
			tr := core.CollectTrace(ctxs, oldPolicy, b.drawReward, b.rng)
			truth := core.TrueValue(ctxs, newPolicy, b.trueReward)
			// A mildly biased model so DR has real work to do.
			model := core.RewardFunc[float64, int](func(x float64, d int) float64 {
				return b.trueReward(x, d) + 0.3
			})
			v, err := core.NewTraceView(tr)
			if err != nil {
				return runOut{}, err
			}
			ips, err := core.IPSView(v, newPolicy, core.IPSOptions{})
			if err != nil {
				return runOut{}, err
			}
			dr, err := core.DoublyRobustView(v, newPolicy, model, core.DROptions{})
			if err != nil {
				return runOut{}, err
			}
			return runOut{
				ips: mathx.RelativeError(truth, ips.Value),
				dr:  mathx.RelativeError(truth, dr.Value),
				ess: ips.ESS,
			}, nil
		})
		if err != nil {
			return Result{}, err
		}
		ipsErrs := column(outs, func(o runOut) float64 { return o.ips })
		drErrs := column(outs, func(o runOut) float64 { return o.dr })
		esss := column(outs, func(o runOut) float64 { return o.ess })
		res.Rows = append(res.Rows,
			row(fmt.Sprintf("IPS ε=%.2f", eps), "", ipsErrs),
			row(fmt.Sprintf("DR  ε=%.2f", eps), "", drErrs),
			row(fmt.Sprintf("ESS ε=%.2f", eps), "ESS", esss),
		)
	}
	res.Notes = append(res.Notes, "ε=1.00 is fully randomized logging; ε→0 approaches the deterministic policies the paper warns about")
	return res, nil
}

// adaptivePolicy is the history-based target policy of E3: it tracks
// per-decision mean rewards over its accepted history and plays
// ε-greedy on them.
type adaptivePolicy struct {
	eps float64
}

func (p adaptivePolicy) DistributionWithHistory(h core.Trace[float64, int], _ float64) []core.Weighted[int] {
	sums := make([]float64, len(banditDecisions))
	counts := make([]float64, len(banditDecisions))
	for _, rec := range h {
		sums[rec.Decision] += rec.Reward
		counts[rec.Decision]++
	}
	best, bestV := 0, math.Inf(-1)
	for d := range banditDecisions {
		mean := 1.0 // optimistic prior
		if counts[d] > 0 {
			mean = sums[d] / counts[d]
		}
		if mean > bestV {
			bestV, best = mean, d
		}
	}
	out := make([]core.Weighted[int], len(banditDecisions))
	share := p.eps / float64(len(banditDecisions))
	for d := range banditDecisions {
		pr := share
		if d == best {
			pr += 1 - p.eps
		}
		out[d] = core.Weighted[int]{Decision: d, Prob: pr}
	}
	return out
}

// NonStationaryReplay is experiment E3 (§4.2): evaluating a
// history-based (adaptive) policy. The replay-DR estimator subsamples
// the trace to the policy's own trajectory; the naive baseline applies
// basic DR with the policy's empty-history distribution, which ignores
// that the policy would have adapted. Ground truth comes from directly
// simulating the adaptive policy many times.
func NonStationaryReplay(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 30
	}
	const n = 3000
	const truthReps = 60
	target := adaptivePolicy{eps: 0.2}
	logging := core.UniformPolicy[float64, int]{Decisions: banditDecisions}
	type runOut struct{ replay, naive, accepted float64 }
	outs, err := forEachRun(runs, seed, func(run int, rng *mathx.RNG) (runOut, error) {
		b := &banditWorld{rng: rng, noise: 0.3}
		ctxs := b.contexts(n)
		tr := core.CollectTrace(ctxs, logging, b.drawReward, b.rng)

		// Ground truth: run the adaptive policy on the same context
		// distribution with fresh draws.
		truthRng := mathx.NewRNG(seed + 7919 + int64(run))
		var totals []float64
		for rep := 0; rep < truthReps; rep++ {
			var hist core.Trace[float64, int]
			sum := 0.0
			for _, x := range ctxs[:600] {
				dist := target.DistributionWithHistory(hist, x)
				probs := make([]float64, len(dist))
				for i, w := range dist {
					probs[i] = w.Prob
				}
				pick := dist[truthRng.Categorical(probs)]
				r := b.trueReward(x, pick.Decision) + truthRng.Normal(0, 0.3)
				sum += r
				hist = append(hist, core.Record[float64, int]{Context: x, Decision: pick.Decision, Reward: r, Propensity: pick.Prob})
			}
			totals = append(totals, sum/600)
		}
		truth := mathx.Mean(totals)

		model := core.RewardFunc[float64, int](b.trueReward)
		replayRng := mathx.NewRNG(seed + 104729 + int64(run))
		rep, err := core.ReplayDR[float64, int](tr, target, model, replayRng)
		if err != nil {
			return runOut{}, err
		}
		// Naive: treat the policy as stationary with empty history.
		frozen := core.FuncPolicy[float64, int](func(x float64) []core.Weighted[int] {
			return target.DistributionWithHistory(nil, x)
		})
		v, err := core.NewTraceView(tr)
		if err != nil {
			return runOut{}, err
		}
		naive, err := core.DoublyRobustView(v, frozen, model, core.DROptions{})
		if err != nil {
			return runOut{}, err
		}
		return runOut{
			replay:   mathx.RelativeError(truth, rep.Estimate.Value),
			naive:    mathx.RelativeError(truth, naive.Value),
			accepted: float64(rep.Accepted),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	replayErrs := column(outs, func(o runOut) float64 { return o.replay })
	naiveErrs := column(outs, func(o runOut) float64 { return o.naive })
	accepted := column(outs, func(o runOut) float64 { return o.accepted })
	res := Result{
		ID:    "E3",
		Title: "Non-stationary policies: replay-DR vs frozen-history DR on an adaptive target",
		Runs:  runs,
		Rows: []Row{
			row("frozen-history DR", "", naiveErrs),
			row("replay DR", "", replayErrs),
			row("replay accepted", "records", accepted),
		},
	}
	res.Notes = append(res.Notes, "the frozen-history baseline evaluates the policy's day-one behaviour; replay-DR follows its adaptation")
	return res, nil
}

// WorldStateCorrection is experiment E4 (§4.1/§4.3 "system state of the
// world"): a morning-state trace evaluates a peak-hours policy. Rows
// compare raw DR, the paper's fixed-degradation rule, and per-server
// transition functions fitted from a small peak calibration set.
func WorldStateCorrection(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 30
	}
	type runOut struct{ raw, degrade, group float64 }
	outs, err := forEachRun(runs, seed, func(_ int, rng *mathx.RNG) (runOut, error) {
		s := worldstate.DefaultScenario()
		if err := s.Init(rng); err != nil {
			return runOut{}, err
		}
		morning, err := s.Collect(2000, worldstate.MorningHour, rng)
		if err != nil {
			return runOut{}, err
		}
		peakCal, err := s.Collect(200, worldstate.PeakHour, rng)
		if err != nil {
			return runOut{}, err
		}
		np := s.NewPolicy()
		truth := core.TrueValue(morning.Contexts, np, func(c, v int) float64 {
			return s.TrueReward(c, v, worldstate.PeakHour)
		})
		tableKey := func(c, v int) string { return worldstate.ServerGroup(c, v) }

		estimate := func(tr core.Trace[int, int]) (float64, error) {
			v, err := core.NewTraceView(tr)
			if err != nil {
				return 0, err
			}
			est, err := core.DoublyRobustView(v, np, core.FitTable(tr, tableKey), core.DROptions{})
			return est.Value, err
		}
		raw, err := estimate(morning.Trace)
		if err != nil {
			return runOut{}, err
		}
		// Paper's rule of thumb with the globally calibrated mean drop.
		ratio := peakCal.Trace.MeanReward() / morning.Trace.MeanReward()
		deg, err := estimate(worldstate.TransformTrace(morning.Trace, worldstate.Transition{Slope: ratio}))
		if err != nil {
			return runOut{}, err
		}
		trans, err := worldstate.FitPerGroup(
			worldstate.CalibrationFromTrace(morning.Trace, worldstate.ServerGroup),
			worldstate.CalibrationFromTrace(peakCal.Trace, worldstate.ServerGroup),
		)
		if err != nil {
			return runOut{}, err
		}
		corrected, _ := worldstate.TransformTraceGrouped(morning.Trace, trans, worldstate.ServerGroup)
		grp, err := estimate(corrected)
		if err != nil {
			return runOut{}, err
		}
		return runOut{
			raw:     mathx.RelativeError(truth, raw),
			degrade: mathx.RelativeError(truth, deg),
			group:   mathx.RelativeError(truth, grp),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	rawErrs := column(outs, func(o runOut) float64 { return o.raw })
	degradeErrs := column(outs, func(o runOut) float64 { return o.degrade })
	groupErrs := column(outs, func(o runOut) float64 { return o.group })
	res := Result{
		ID:    "E4",
		Title: "World state: evaluating a peak-hours policy from a morning trace",
		Runs:  runs,
		Rows: []Row{
			row("DR, raw morning trace", "", rawErrs),
			row("DR + global degrade rule", "", degradeErrs),
			row("DR + per-server transition", "", groupErrs),
		},
	}
	res.Notes = append(res.Notes, "the global rule helps only as far as the state shift is uniform; per-server transitions capture saturation")
	return res, nil
}

// CouplingCorrection is experiment E5 (§4.1/§4.3 "hidden decision-reward
// coupling"): the logging policy's own traffic shift degrades one server
// mid-trace. Rows compare naive DR over the whole trace against
// change-point state matching (detected and oracle segment boundaries).
func CouplingCorrection(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 30
	}
	type runOut struct{ naive, detected, oracle float64 }
	outs, err := forEachRun(runs, seed, func(_ int, rng *mathx.RNG) (runOut, error) {
		s := coupling.DefaultScenario()
		if err := s.Init(rng); err != nil {
			return runOut{}, err
		}
		const n = 3000
		steps, err := s.Run(n, rng)
		if err != nil {
			return runOut{}, err
		}
		np := s.NewPolicy()
		truth := s.GroundTruth(steps, np, s.Phase1Loads())
		key := func(c, v int) string { return fmt.Sprintf("%d/%d", c, v) }

		estimate := func(tr core.Trace[int, int]) (float64, error) {
			v, err := core.NewTraceView(tr)
			if err != nil {
				return 0, err
			}
			est, err := core.DoublyRobustView(v, np, core.FitTable(tr, key), core.DROptions{})
			return est.Value, err
		}
		naive, err := estimate(coupling.Trace(steps))
		if err != nil {
			return runOut{}, err
		}
		labels, err := coupling.DetectStates(steps, s.ShiftTarget, 0)
		if err != nil {
			return runOut{}, err
		}
		target := s.Phase1Loads()[s.ShiftTarget]
		matchedTrace, err := coupling.MatchState(steps, labels, s.ShiftTarget, target, 0)
		if err != nil {
			return runOut{}, err
		}
		detected, err := estimate(matchedTrace)
		if err != nil {
			return runOut{}, err
		}
		// Oracle: use the true phase boundary.
		oracleLabels := make([]int, n)
		for i := int(s.PhaseSwitch * float64(n)); i < n; i++ {
			oracleLabels[i] = 1
		}
		oracleTrace, err := coupling.MatchState(steps, oracleLabels, s.ShiftTarget, target, 0)
		if err != nil {
			return runOut{}, err
		}
		oracle, err := estimate(oracleTrace)
		if err != nil {
			return runOut{}, err
		}
		return runOut{
			naive:    mathx.RelativeError(truth, naive),
			detected: mathx.RelativeError(truth, detected),
			oracle:   mathx.RelativeError(truth, oracle),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	naiveErrs := column(outs, func(o runOut) float64 { return o.naive })
	detectedErrs := column(outs, func(o runOut) float64 { return o.detected })
	oracleErrs := column(outs, func(o runOut) float64 { return o.oracle })
	res := Result{
		ID:    "E5",
		Title: "Decision-reward coupling: naive DR vs change-point state-matched DR",
		Runs:  runs,
		Rows: []Row{
			row("DR, whole trace", "", naiveErrs),
			row("DR, PELT-matched state", "", detectedErrs),
			row("DR, oracle-matched state", "", oracleErrs),
		},
	}
	return res, nil
}

// DimensionalitySweep is experiment E6 (§2.2.2 / Figure 5): as the
// decision space grows, the matching evaluator's coverage collapses and
// its error grows, while DR (which uses every record via its direct
// model) degrades far more slowly. A second block grows the feature
// space with irrelevant features, degrading the k-NN model and with it
// both DM and (gracefully) DR.
func DimensionalitySweep(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 30
	}
	const clients = 600
	res := Result{
		ID:    "E6",
		Title: "Curse of dimensionality: matching vs DR as decision and feature spaces grow",
		Runs:  runs,
	}
	type gridPoint struct {
		cdns, bitrates, features int
	}
	blocks := []struct {
		name   string
		points []gridPoint
	}{
		{"decision space", []gridPoint{{2, 2, 4}, {3, 4, 4}, {4, 6, 4}, {6, 8, 4}}},
		{"feature space", []gridPoint{{3, 4, 4}, {3, 4, 8}, {3, 4, 12}}},
	}
	for _, blk := range blocks {
		for _, gp := range blk.points {
			type runOut struct{ cfa, dr, matchRate float64 }
			outs, err := forEachRun(runs, seed, func(_ int, rng *mathx.RNG) (runOut, error) {
				w := cfa.DefaultWorld()
				w.NumCDNs, w.NumBitrates, w.NumFeatures = gp.cdns, gp.bitrates, gp.features
				if err := w.Init(rng); err != nil {
					return runOut{}, err
				}
				d, err := w.Collect(clients, rng)
				if err != nil {
					return runOut{}, err
				}
				np := w.NewPolicy(0.4, rng)
				truth := d.GroundTruth(np)
				v, err := core.NewTraceViewKeyed(d.Trace, cfa.Client.Key)
				if err != nil {
					return runOut{}, err
				}
				diag, err := core.DiagnoseView(v, np)
				if err != nil {
					return runOut{}, err
				}
				out := runOut{matchRate: diag.MatchRate}
				matched, err := core.MatchedRewardsView(v, np)
				if err != nil {
					// No matches at all: score the worst case.
					out.cfa = 1
				} else {
					out.cfa = mathx.RelativeError(truth, matched.Value)
				}
				fit := func(tr core.Trace[cfa.Client, cfa.Decision]) (core.RewardModel[cfa.Client, cfa.Decision], error) {
					return (&cfa.Data{Trace: tr, World: d.World}).PerDecisionKNNModel(3)
				}
				dr, err := core.CrossFitDRView(v, np, fit, 2, core.DROptions{})
				if err != nil {
					return runOut{}, err
				}
				out.dr = mathx.RelativeError(truth, dr.Value)
				return out, nil
			})
			if err != nil {
				return Result{}, err
			}
			cfaErrs := column(outs, func(o runOut) float64 { return o.cfa })
			drErrs := column(outs, func(o runOut) float64 { return o.dr })
			matchRates := column(outs, func(o runOut) float64 { return o.matchRate })
			label := fmt.Sprintf("%s %dx%d f=%d", blk.name, gp.cdns, gp.bitrates, gp.features)
			res.Rows = append(res.Rows,
				row("CFA "+label, "", cfaErrs),
				row("DR  "+label, "", drErrs),
				row("mr  "+label, "match rate", matchRates),
			)
		}
	}
	res.Notes = append(res.Notes,
		"match rate collapses ~1/|D| as the decision grid grows (Figure 5's coverage problem)",
		"DR beats matching while its direct model has data per decision; on the largest grid (~12 records/decision) both estimators degrade — DR is only as good as its better ingredient")
	return res, nil
}

// RelayBias is experiment E7 (Figure 3): the logging policy relays only
// NAT-ed calls, so the NAT-blind VIA evaluator misjudges relaying for
// public-IP callers. Rows compare the VIA direct method, DR on the same
// NAT-blind model, and both with the NAT feature added.
func RelayBias(runs int, seed int64) (Result, error) {
	if runs <= 0 {
		runs = 30
	}
	const calls = 4000
	type runOut struct{ via, dr, fullDM, fullDR float64 }
	outs, err := forEachRun(runs, seed, func(_ int, rng *mathx.RNG) (runOut, error) {
		w := relay.DefaultWorld()
		if err := w.Init(rng); err != nil {
			return runOut{}, err
		}
		d, err := w.Collect(calls, rng)
		if err != nil {
			return runOut{}, err
		}
		np := w.NewPolicy()
		truth := d.GroundTruth(np)
		via := d.VIAModel()
		full := d.FullModel()
		v, err := core.NewTraceView(d.Trace)
		if err != nil {
			return runOut{}, err
		}
		dm, err := core.DirectMethodView(v, np, via)
		if err != nil {
			return runOut{}, err
		}
		dr, err := core.DoublyRobustView(v, np, via, core.DROptions{})
		if err != nil {
			return runOut{}, err
		}
		fdm, err := core.DirectMethodView(v, np, full)
		if err != nil {
			return runOut{}, err
		}
		fdr, err := core.DoublyRobustView(v, np, full, core.DROptions{})
		if err != nil {
			return runOut{}, err
		}
		return runOut{
			via:    mathx.RelativeError(truth, dm.Value),
			dr:     mathx.RelativeError(truth, dr.Value),
			fullDM: mathx.RelativeError(truth, fdm.Value),
			fullDR: mathx.RelativeError(truth, fdr.Value),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	viaErrs := column(outs, func(o runOut) float64 { return o.via })
	drErrs := column(outs, func(o runOut) float64 { return o.dr })
	fullDMErrs := column(outs, func(o runOut) float64 { return o.fullDM })
	fullDRErrs := column(outs, func(o runOut) float64 { return o.fullDR })
	res := Result{
		ID:    "E7",
		Title: "Relay NAT bias (Figure 3): VIA matching vs DR, with and without the NAT feature",
		Runs:  runs,
		Rows: []Row{
			row("VIA (NAT-blind DM)", "", viaErrs),
			row("DR, NAT-blind model", "", drErrs),
			row("DM + NAT feature", "", fullDMErrs),
			row("DR + NAT feature", "", fullDRErrs),
		},
	}
	res.Notes = append(res.Notes, "adding the NAT feature fixes the model directly; DR fixes the evaluation even without it")
	return res, nil
}
