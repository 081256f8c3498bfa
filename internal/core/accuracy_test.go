package core

import (
	"math"
	"math/big"
	"testing"

	"drnet/internal/mathx"
)

// bigSum accumulates Σx and Σx² of float64-derived terms exactly enough
// (256-bit mantissas) to serve as ground truth for the fold's sums.
type bigSum struct{ s, ss *big.Float }

func newBigSum() bigSum { return bigSum{s: bf(0), ss: bf(0)} }

func bf(x float64) *big.Float { return new(big.Float).SetPrec(256).SetFloat64(x) }

func (b bigSum) add(x *big.Float) {
	b.s.Add(b.s, x)
	b.ss.Add(b.ss, new(big.Float).SetPrec(256).Mul(x, x))
}

// meanSE returns the mean and the plug-in standard error
// sqrt(Σ(x−x̄)²/(n−1))/√n, computed from the exact sums.
func (b bigSum) meanSE(n int) (float64, float64) {
	nf := bf(float64(n))
	mean := new(big.Float).SetPrec(256).Quo(b.s, nf)
	dev := new(big.Float).SetPrec(256).Mul(mean, b.s)
	dev.Sub(b.ss, dev)
	dev.Quo(dev, bf(float64(n-1)))
	dev.Quo(dev, nf)
	m, _ := mean.Float64()
	return m, math.Sqrt(must64(dev))
}

func must64(x *big.Float) float64 { f, _ := x.Float64(); return f }

// TestFoldAccuracyAgainstBigFloat pins the fold's accuracy where naive
// power sums fail: 10⁶ records over 50 contexts, rewards 10⁶+U(0,1),
// propensities log-uniform down to 10⁻⁶ and a uniform two-decision
// target. Every Value must sit within 1e-11 and every StdErr within
// 1e-6 relative of a math/big evaluation of the same terms — for the
// batch calls and for a stream fed 100 records per Apply.
func TestFoldAccuracyAgainstBigFloat(t *testing.T) {
	const n = 1_000_000
	rng := mathx.NewRNG(11)
	tr := make(Trace[int, int], n)
	for i := range tr {
		tr[i] = Record[int, int]{Context: rng.Intn(50), Decision: rng.Intn(2), Reward: 1e6 + rng.Float64(),
			Propensity: math.Pow(10, -6*rng.Float64())}
	}
	target := UniformPolicy[int, int]{Decisions: []int{0, 1}}
	v := mustView(t, tr)
	model := FitTableView(v)

	// Ground truth: every term from the same float64 inputs, summed in
	// math/big.
	dm, ips, dr, sndrE, w, wr, w2, w2r, w2r2 := newBigSum(), newBigSum(), newBigSum(), newBigSum(), bf(0), bf(0), bf(0), bf(0), bf(0)
	half := bf(0.5)
	for _, rec := range tr {
		x := new(big.Float).SetPrec(256).Mul(half, bf(model.Predict(rec.Context, 0)))
		x.Add(x, new(big.Float).SetPrec(256).Mul(half, bf(model.Predict(rec.Context, 1))))
		wi := new(big.Float).SetPrec(256).Quo(half, bf(rec.Propensity))
		r := bf(rec.Reward)
		wri := new(big.Float).SetPrec(256).Mul(wi, r)
		e := new(big.Float).SetPrec(256).Sub(r, bf(model.Predict(rec.Context, rec.Decision)))
		e.Mul(e, wi)
		dm.add(x)
		ips.add(wri)
		dr.add(new(big.Float).SetPrec(256).Add(x, e))
		sndrE.add(e)
		w.Add(w, wi)
		wr.Add(wr, wri)
		wi2 := new(big.Float).SetPrec(256).Mul(wi, wi)
		w2.Add(w2, wi2)
		wi2.Mul(wi2, r)
		w2r.Add(w2r, wi2)
		wi2.Mul(wi2, r)
		w2r2.Add(w2r2, wi2)
	}
	nf := bf(n)
	want := StreamEstimates{}
	want.DM.Value, want.DM.StdErr = dm.meanSE(n)
	want.IPS.Value, want.IPS.StdErr = ips.meanSE(n)
	want.DR.Value, want.DR.StdErr = dr.meanSE(n)
	// SNIPS: V = Σwr/Σw; its influence terms w(r−V)/w̄ sum to 0 and
	// their squares to (Σw²r² − 2VΣw²r + V²Σw²)/w̄².
	V := new(big.Float).SetPrec(256).Quo(wr, w)
	wbar := new(big.Float).SetPrec(256).Quo(w, nf)
	sq := new(big.Float).SetPrec(256).Mul(V, w2)
	sq.Sub(sq, new(big.Float).SetPrec(256).Mul(bf(2), w2r))
	sq.Mul(sq, V)
	sq.Add(sq, w2r2)
	sq.Quo(sq, new(big.Float).SetPrec(256).Mul(wbar, wbar))
	infl := bigSum{s: bf(0), ss: sq}
	want.SNIPS.Value = must64(V)
	_, want.SNIPS.StdErr = infl.meanSE(n)
	// SN-DR terms dm + c·e with c = n/Σw.
	c := new(big.Float).SetPrec(256).Quo(nf, w)
	sndr := bigSum{s: new(big.Float).SetPrec(256).Add(dm.s, new(big.Float).SetPrec(256).Mul(c, sndrE.s))}
	cross := new(big.Float).SetPrec(256).Mul(c, c)
	cross.Mul(cross, sndrE.ss)
	sndr.ss = cross.Add(cross, dm.ss)
	// Σ dm·e needs its own pass: dm is per context, so group e by context.
	byCtx := make([]*big.Float, 50)
	for u := range byCtx {
		byCtx[u] = bf(0)
	}
	for _, rec := range tr {
		e := new(big.Float).SetPrec(256).Sub(bf(rec.Reward), bf(model.Predict(rec.Context, rec.Decision)))
		e.Mul(e, new(big.Float).SetPrec(256).Quo(half, bf(rec.Propensity)))
		byCtx[rec.Context].Add(byCtx[rec.Context], e)
	}
	for u, s := range byCtx {
		x := new(big.Float).SetPrec(256).Mul(half, bf(model.Predict(u, 0)))
		x.Add(x, new(big.Float).SetPrec(256).Mul(half, bf(model.Predict(u, 1))))
		x.Mul(x, s)
		x.Mul(x, new(big.Float).SetPrec(256).Mul(bf(2), c))
		sndr.ss.Add(sndr.ss, x)
	}
	want.SNDR.Value, want.SNDR.StdErr = sndr.meanSE(n)

	check := func(path string, got StreamEstimates) {
		t.Helper()
		for _, c := range []struct {
			name      string
			got, want Estimate
		}{{"DM", got.DM, want.DM}, {"IPS", got.IPS, want.IPS}, {"SNIPS", got.SNIPS, want.SNIPS}, {"DR", got.DR, want.DR}, {"SN-DR", got.SNDR, want.SNDR}} {
			t.Logf("%s %s: value off by %.2g, stderr by %.2g relative", path, c.name,
				math.Abs(c.got.Value-c.want.Value)/math.Abs(c.want.Value), math.Abs(c.got.StdErr-c.want.StdErr)/c.want.StdErr)
			if !closeRel(c.got.Value, c.want.Value, 1e-11) || !closeRel(c.got.StdErr, c.want.StdErr, 1e-6) {
				t.Errorf("%s %s: value %.17g stderr %.17g, math/big %.17g ± %.17g",
					path, c.name, c.got.Value, c.got.StdErr, c.want.Value, c.want.StdErr)
			}
		}
	}
	batch, err := batchEstimates(v, target, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("batch", batch)

	b := NewViewBuilder[int, int]()
	se := NewStreamEval[int, int](target, model, StreamOptions{})
	for from := 0; from < n; from += 100 {
		for _, rec := range tr[from : from+100] {
			if err := b.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := se.Apply(b.Snapshot(), from); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := se.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	check("stream", stream)
}
