package core

// FitBestObserved returns the greedy policy of v's observed rewards,
// the argmax step of Dudík, Langford & Li over the per-cell means the
// view holds. A context the view logged gets the decision with the
// highest mean reward among the decisions that context logged; any
// other context gets the decision with the highest mean over the
// whole trace. The policy is deterministic: one decision, probability
// one.
//
// Means are per-cell reward sums in record order over counts, so they
// equal a per-record scan bit for bit. A mean must exceed -1e300 to be
// chosen (when none does, the decision is D's zero value), and a tie
// goes to the decision logged first: by that context for its own
// cells, in the trace for the fallback. Answers are lookups into
// tables built here, so the policy is pure; the estimators' tables
// over any snapshot of v's builder read them by context code. The
// policy keeps v's builder, for its context index, and pins no column
// the builder has since outgrown. Distribution returns one shared,
// read-only slice per decision, so answering allocates nothing.
func FitBestObserved[C any, D comparable](v *TraceView[C, D]) Policy[C, D] {
	u, k := len(v.contexts), len(v.decisions)
	sum := make([]float64, u*k)
	count := make([]int32, u*k)
	first := make([]int32, u*k)
	decSum := make([]float64, k)
	decCount := make([]int32, k)
	for i, r := range v.rewards {
		kc := v.decCodes[i]
		cell := int(v.ctxCodes[i])*k + int(kc)
		if count[cell] == 0 {
			first[cell] = int32(i)
		}
		sum[cell] += r
		count[cell]++
		decSum[kc] += r
		decCount[kc]++
	}
	p := &bestObserved[C, D]{src: v.src, best: make([]int32, u), dists: make([][]Weighted[D], k+1)}
	for kc := range p.dists {
		var d D
		if kc > 0 {
			d = v.decisions[kc-1]
		}
		p.dists[kc] = []Weighted[D]{{Decision: d, Prob: 1}}
	}
	for c := range p.best {
		row := c * k
		p.best[c] = argmaxMean(sum[row:row+k], count[row:row+k], first[row:row+k])
	}
	// Decision codes are in first-occurrence order, so the codes
	// themselves order the fallback's ties.
	p.fallback = argmaxMean(decSum, decCount, nil)
	return p
}

// bestObserved is FitBestObserved's policy: a decision code per
// context code of the view it was fit on, and one for other contexts.
// src is that view's builder. dists[kc+1] is decision kc's
// distribution, dists[0] the zero decision's.
type bestObserved[C any, D comparable] struct {
	src      *ViewBuilder[C, D]
	best     []int32
	fallback int32
	dists    [][]Weighted[D]
}

// Distribution implements Policy.
func (p *bestObserved[C, D]) Distribution(c C) []Weighted[D] {
	if u, ok := p.src.lookup(c, int32(len(p.best))); ok {
		return p.distributionAt(int(u))
	}
	return p.dists[p.fallback+1]
}

// distributionAt is Distribution of the builder's context u, without
// resolving the context value to its code.
func (p *bestObserved[C, D]) distributionAt(u int) []Weighted[D] {
	if u >= len(p.best) {
		return p.dists[p.fallback+1]
	}
	return p.dists[p.best[u]+1]
}

// argmaxMean returns the code of the largest sum/count over the cells
// with count > 0, -1 when no mean exceeds -1e300. A tie goes to the
// smaller first index, or to the smaller code when first is nil. NaN
// means never win, as under a strict > scan.
func argmaxMean(sum []float64, count, first []int32) int32 {
	best, bestV := int32(-1), -1e300
	for kc, n := range count {
		if n == 0 {
			continue
		}
		m := sum[kc] / float64(n)
		//lint:allow floathygiene a tie is exact equality, as under the strict > scan this replaces
		if m > bestV || (m == bestV && best >= 0 && first != nil && first[kc] < first[best]) {
			best, bestV = int32(kc), m
		}
	}
	return best
}
