// Fixture for nondet's map-order selection rule, loaded as
// fixture/internal/traceio: the rule applies outside the deterministic
// packages too, where nondet reports nothing else.
package fixture

import "time"

type cell struct {
	sum   float64
	count int
}

// bestObserved is the old best-observed argmax: equal means resolve to
// whichever decision the randomized map order reaches first.
func bestObserved(m map[string]*cell) string {
	bestD, bestV := "", -1e300
	for d, c := range m {
		if v := c.sum / float64(c.count); v > bestV { // want "keeps a running best under a strict comparison"
			bestV, bestD = v, d
		}
	}
	return bestD
}

// bestMean keeps only the extreme value, which no iteration order
// changes.
func bestMean(m map[string]*cell) float64 {
	bestV := -1e300
	for _, c := range m {
		if v := c.sum / float64(c.count); v > bestV {
			bestV = v
		}
	}
	return bestV
}

// above filters against a fixed bound: nothing is selected.
func above(m map[string]float64, bound float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if v > bound {
			out[k] = v
		}
	}
	return out
}

type entry struct {
	epoch int
	name  string
}

// oldest breaks epoch ties on the name, a total order, and says so.
func oldest(m map[string]*entry) *entry {
	var best *entry
	for _, e := range m {
		//lint:allow nondet (epoch, name) is a total order, so no two entries tie
		if best == nil || e.epoch < best.epoch || (e.epoch == best.epoch && e.name < best.name) {
			best = e
		}
	}
	return best
}

// stamp reads the clock, which nondet only reports in deterministic
// packages.
func stamp() time.Time { return time.Now() }
