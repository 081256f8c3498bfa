package core

import (
	"math"

	"drnet/internal/mathx"
)

// oracle is the textbook evaluation the fold is checked against: each
// record's term, then mean and two-pass standard error (valid policies).
type oracleResult struct {
	DM, IPS, SNIPS, DR, SNDR, Matched Estimate
	Diag                              Diagnostics
}

func meanSE(c []float64) Estimate {
	return Estimate{Value: mathx.Mean(c), StdErr: mathx.StdDev(c) / math.Sqrt(float64(len(c))), N: len(c), ESS: float64(len(c))}
}

// kishESS is Kish's effective sample size (Σw)² / Σw², 0 for no weight.
func kishESS(ws []float64) float64 {
	sum, sumSq := 0.0, 0.0
	for _, w := range ws {
		sum += w
		sumSq += w * w
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / sumSq
}

// weightedMean is Σ wᵢxᵢ / Σ wᵢ, 0 for no weight.
func weightedMean(xs, ws []float64) float64 {
	num, den := 0.0, 0.0
	for i := range xs {
		num += ws[i] * xs[i]
		den += ws[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func weighted(c, w []float64) Estimate {
	e := meanSE(c)
	e.ESS = kishESS(w)
	for _, x := range w {
		e.MaxWeight = math.Max(e.MaxWeight, x)
	}
	return e
}

func oracle[C any, D comparable](t Trace[C, D], p Policy[C, D], m RewardModel[C, D], clip float64) (o oracleResult) {
	n, sumW := float64(len(t)), 0.0
	var dm, w, wr, e, dw, matched, rs []float64
	o.Diag = Diagnostics{N: len(t), MinPropensity: t[0].Propensity}
	for _, rec := range t {
		dist := p.Distribution(rec.Context)
		v, last, best := 0.0, 0.0, dist[0]
		for _, x := range dist {
			if x.Prob != 0 {
				v += x.Prob * m.Predict(rec.Context, x.Decision)
			}
			if x.Decision == rec.Decision {
				last = x.Prob
			}
			if x.Prob > best.Prob {
				best = x
			}
		}
		wi := Prob(p, rec.Context, rec.Decision) / rec.Propensity
		if clip > 0 && wi > clip {
			wi = clip
		}
		sumW += wi
		dm, w, rs, wr = append(dm, v), append(w, wi), append(rs, rec.Reward), append(wr, wi*rec.Reward)
		e, dw = append(e, rec.Reward-m.Predict(rec.Context, rec.Decision)), append(dw, last/rec.Propensity)
		if best.Decision == rec.Decision {
			matched = append(matched, rec.Reward)
		}
		if last == 0 {
			o.Diag.ZeroSupport++
		}
		o.Diag.MaxWeight, o.Diag.MinPropensity = math.Max(o.Diag.MaxWeight, dw[len(dw)-1]), math.Min(o.Diag.MinPropensity, rec.Propensity)
	}
	o.DM, o.IPS, o.SNIPS, o.Matched = meanSE(dm), weighted(wr, w), weighted(wr, w), meanSE(matched)
	o.SNIPS.Value, o.SNIPS.StdErr = weightedMean(rs, w), 0
	infl, dr, sndr := make([]float64, len(t)), make([]float64, len(t)), make([]float64, len(t))
	norm, wbar := n, sumW/n
	if sumW > 0 {
		norm = sumW
	}
	for i := range t {
		infl[i], dr[i], sndr[i] = w[i]*(rs[i]-o.SNIPS.Value)/wbar, dm[i]+w[i]*e[i], dm[i]+n/norm*w[i]*e[i]
	}
	if wbar > 0 {
		o.SNIPS.StdErr = meanSE(infl).StdErr
	}
	o.DR, o.SNDR = weighted(dr, w), weighted(sndr, w)
	o.Diag.ESS, o.Diag.MatchRate, o.Diag.MeanWeight = kishESS(dw), float64(len(matched))/n, mathx.Mean(dw)
	return o
}
