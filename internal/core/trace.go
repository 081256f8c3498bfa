package core

import (
	"errors"
	"fmt"
	"math"
)

// Record is one logged interaction: the old policy observed context
// Context, chose Decision (with probability Propensity under the old
// policy), and the system returned Reward.
type Record[C any, D comparable] struct {
	Context  C
	Decision D
	Reward   float64
	// Propensity is µ_old(Decision | Context): the probability with
	// which the logging policy chose this decision. It must be in
	// (0, 1]. CollectTrace records it from the logging policy; when it
	// is unknown, use EstimatePropensities or FitPropensityModel before
	// running IPS/DR.
	Propensity float64
}

// Trace is an ordered sequence of logged records, as collected while the
// old policy was serving clients.
type Trace[C any, D comparable] []Record[C, D]

// ErrEmptyTrace is returned by estimators invoked on a trace with no
// records.
var ErrEmptyTrace = errors.New("core: empty trace")

// MeanReward returns the average logged reward (the on-policy value of
// the old policy).
func (t Trace[C, D]) MeanReward() float64 {
	if len(t) == 0 {
		return 0
	}
	s := 0.0
	for _, rec := range t {
		s += rec.Reward
	}
	return s / float64(len(t))
}

// Validate checks that every record has a usable propensity (in (0,1])
// and finite reward. Estimators that use propensities call this
// implicitly; it is exported so trace producers can fail fast.
//
//lint:allow ctxdiscipline checkRecord is two comparisons and an error, as cheap as the inline checks it replaced
func (t Trace[C, D]) Validate() error {
	for i, rec := range t {
		if err := checkRecord(i, rec.Propensity, rec.Reward); err != nil {
			return err
		}
	}
	return nil
}

// checkRecord is Validate's test of record i. NewTraceView and
// ViewBuilder apply it too, so all three reject the same record with
// the same text.
func checkRecord(i int, propensity, reward float64) error {
	// The negated comparison also rejects NaN propensities, which pass
	// a plain range check and poison every weight downstream.
	if !(propensity > 0) || propensity > 1 {
		return fmt.Errorf("core: record %d has propensity %g, want (0,1]", i, propensity)
	}
	if math.IsNaN(reward) {
		return fmt.Errorf("core: record %d has NaN reward", i)
	}
	if math.IsInf(reward, 0) {
		return fmt.Errorf("core: record %d has infinite reward", i)
	}
	return nil
}

// Split partitions the trace into two halves: the first frac (0<frac<1)
// of records and the remainder. It is used for sample-splitting — fitting
// the reward model on one part and estimating on the other — which keeps
// DR's favourable bias properties when the model is fit from the same
// trace.
func (t Trace[C, D]) Split(frac float64) (fit, eval Trace[C, D], err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("core: split fraction %g out of (0,1)", frac)
	}
	k := int(frac * float64(len(t)))
	if k == 0 || k == len(t) {
		return nil, nil, errors.New("core: split produced an empty part")
	}
	return t[:k], t[k:], nil
}

// DecisionCounts tallies how many times each decision appears in the
// trace.
func (t Trace[C, D]) DecisionCounts() map[D]int {
	out := make(map[D]int)
	for _, rec := range t {
		out[rec.Decision]++
	}
	return out
}
