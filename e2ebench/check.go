package main

import (
	"fmt"
	"math"

	"drnet/internal/core"
	"drnet/internal/traceio"
)

// The reply types mirror the fields of drevald's responses the suite
// checks; everything else in a body is ignored.

type estimateReply struct {
	Value  float64 `json:"value"`
	StdErr float64 `json:"stdErr"`
}

type intervalReply struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

type streamReply struct {
	Epoch int `json:"epoch"`
}

type evalReply struct {
	DM         estimateReply  `json:"dm"`
	IPS        estimateReply  `json:"ips"`
	DR         estimateReply  `json:"dr"`
	DRInterval *intervalReply `json:"drInterval"`
	Degraded   bool           `json:"degraded"`
	Stream     *streamReply   `json:"stream"`
}

type ingestReply struct {
	Acked   int  `json:"acked"`
	Durable bool `json:"durable"`
	Epoch   int  `json:"epoch"`
}

type healthReply struct {
	WAL *struct {
		Replaying   bool   `json:"replaying"`
		ReplayError string `json:"replayError"`
		Epoch       int    `json:"epoch"`
	} `json:"wal"`
}

// reference is what drevald must answer for one request, computed in
// process with the core calls drevald's batch path makes.
type reference struct {
	dm, ips, dr core.Estimate
	ci          *core.Interval
}

func evalReference(b evalBody) (reference, error) {
	trace := traceio.ToCore(traceio.FlatTrace{Records: b.Trace})
	if err := trace.Validate(); err != nil {
		return reference{}, err
	}
	policy, err := traceio.ParsePolicy(b.Policy, trace)
	if err != nil {
		return reference{}, err
	}
	view, err := core.NewTraceViewKeyed(trace, traceio.FlatContext.Key)
	if err != nil {
		return reference{}, err
	}
	model := core.FitTableView(view)
	var ref reference
	if ref.dm, err = core.DirectMethodView(view, policy, model); err != nil {
		return reference{}, err
	}
	if ref.ips, err = core.IPSView(view, policy, core.IPSOptions{Clip: b.Options.Clip}); err != nil {
		return reference{}, err
	}
	drOpts := core.DROptions{Clip: b.Options.Clip}
	if ref.dr, err = core.DoublyRobustView(view, policy, model, drOpts); err != nil {
		return reference{}, err
	}
	if n := b.Options.Bootstrap; n > 0 {
		seed := b.Options.Seed
		if seed == 0 {
			seed = 1 // drevald's default
		}
		ci, err := core.BootstrapDRViewSeeded(view, policy, drOpts, seed, n, 0.95)
		if err != nil {
			return reference{}, err
		}
		ref.ci = &ci
	}
	return ref, nil
}

// streamedTolerance bounds the relative stdErr difference between a
// streamed answer and the batch reference: the streaming engine sums
// squares with Welford's update, the batch path in two passes, and the
// two agree only to rounding. Values are single-pass sums in record
// order on both paths and must match exactly.
const streamedTolerance = 1e-9

// check compares a reply with the reference: values bit for bit, and
// stdErr bit for bit when stdErrTol is 0 or within stdErrTol relative
// otherwise. A bootstrap interval must be present exactly when the
// reference has one, and equal it bit for bit. The workloads keep
// enough support that drevald has no reason to degrade an answer, so a
// degraded one fails too.
func (ref reference) check(got evalReply, stdErrTol float64) error {
	if got.Degraded {
		return fmt.Errorf("answer degraded")
	}
	for _, e := range []struct {
		name string
		want core.Estimate
		got  estimateReply
	}{{"dm", ref.dm, got.DM}, {"ips", ref.ips, got.IPS}, {"dr", ref.dr, got.DR}} {
		if !closeRel(e.got.Value, e.want.Value, 0) {
			return fmt.Errorf("%s.value %v, want %v", e.name, e.got.Value, e.want.Value)
		}
		if !closeRel(e.got.StdErr, e.want.StdErr, stdErrTol) {
			return fmt.Errorf("%s.stdErr %v, want %v", e.name, e.got.StdErr, e.want.StdErr)
		}
	}
	switch {
	case ref.ci == nil && got.DRInterval != nil:
		return fmt.Errorf("unexpected drInterval")
	case ref.ci != nil && got.DRInterval == nil:
		return fmt.Errorf("drInterval missing")
	case ref.ci != nil:
		g, w := got.DRInterval, ref.ci
		if !closeRel(g.Lo, w.Lo, 0) || !closeRel(g.Hi, w.Hi, 0) || !closeRel(g.Level, w.Level, 0) {
			return fmt.Errorf("drInterval [%v, %v]@%v, want [%v, %v]@%v", g.Lo, g.Hi, g.Level, w.Lo, w.Hi, w.Level)
		}
	}
	return nil
}

// closeRel reports whether a and b are equal bit for bit (tol 0) or
// within tol of each other relative to the larger magnitude.
func closeRel(a, b, tol float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	return tol > 0 && math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
