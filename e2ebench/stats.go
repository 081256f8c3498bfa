package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: below that, a "p95" is one or two unlucky samples.
const minTail = 10

// latency summarises one set of timings in milliseconds.
type latency struct {
	N   int
	P50 float64
	P95 float64
	// P95OK is false when fewer than minTail samples lie beyond the
	// 95th percentile, in which case P95 is not reported.
	P95OK bool
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// and whether at least minTail samples lie strictly beyond its rank.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minTail
}

// summarize sorts a copy of ms and reports its median and 95th
// percentile with the sample count. The median is always reported; it
// is the statistic a run is compared on.
func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	l := latency{N: len(s)}
	l.P50, _ = percentile(s, 0.5)
	l.P95, l.P95OK = percentile(s, 0.95)
	return l
}

func (l latency) String() string {
	p95 := "n/a"
	if l.P95OK {
		p95 = fmt.Sprintf("%.3fms", l.P95)
	}
	return fmt.Sprintf("p50=%.3fms p95=%s (n=%d)", l.P50, p95, l.N)
}

// median of values (mean of the middle two for even counts).
func median(values []float64) float64 {
	q := quartiles(values)
	return q[1]
}

// quartiles returns the three cut points of values, computed exactly as
// Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method), so spreads reported here match an external check. A single
// value is its own quartiles.
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// spread is the interquartile distance of values as a share of their
// median: the run-to-run noise a metric's regression bound must exceed.
func spread(values []float64) float64 {
	q := quartiles(values)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}
