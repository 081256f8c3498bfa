// Package traceio serializes off-policy evaluation traces to CSV and
// JSON-lines so they can move between the trace-collection tools
// (cmd/tracegen), the evaluator CLI (cmd/dreval) and external systems.
//
// The on-disk schema is deliberately flat: numeric client features, a
// string decision label, the observed reward and the logging propensity.
// Generic traces are converted with Flatten / Unflatten.
package traceio

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"drnet/internal/core"
	"drnet/internal/resilience"
)

// FlatRecord is the serialized form of one trace record.
type FlatRecord struct {
	// Features are the numeric client-context features.
	Features []float64 `json:"features"`
	// Decision is the decision label.
	Decision string `json:"decision"`
	// Reward is the observed reward.
	Reward float64 `json:"reward"`
	// Propensity is µ_old(decision | context).
	Propensity float64 `json:"propensity"`
}

// FlatTrace is a serializable trace.
type FlatTrace struct {
	// FeatureNames optionally names the feature columns.
	FeatureNames []string
	Records      []FlatRecord
}

// Flatten converts a generic trace using the provided featurizer and
// decision labeler.
func Flatten[C any, D comparable](t core.Trace[C, D], featurize func(C) []float64, label func(D) string) FlatTrace {
	out := FlatTrace{Records: make([]FlatRecord, len(t))}
	for i, rec := range t {
		out.Records[i] = FlatRecord{
			Features:   featurize(rec.Context),
			Decision:   label(rec.Decision),
			Reward:     rec.Reward,
			Propensity: rec.Propensity,
		}
	}
	return out
}

// Unflatten converts a flat trace back to a generic one using the
// provided parsers.
func Unflatten[C any, D comparable](ft FlatTrace, parseCtx func([]float64) (C, error), parseDec func(string) (D, error)) (core.Trace[C, D], error) {
	out := make(core.Trace[C, D], len(ft.Records))
	for i, rec := range ft.Records {
		c, err := parseCtx(rec.Features)
		if err != nil {
			return nil, fmt.Errorf("traceio: record %d context: %w", i, err)
		}
		d, err := parseDec(rec.Decision)
		if err != nil {
			return nil, fmt.Errorf("traceio: record %d decision: %w", i, err)
		}
		out[i] = core.Record[C, D]{Context: c, Decision: d, Reward: rec.Reward, Propensity: rec.Propensity}
	}
	return out, nil
}

// WriteCSV writes the trace with a header row: f0..fk, decision, reward,
// propensity. All records must have the same feature count.
func WriteCSV(w io.Writer, ft FlatTrace) error {
	if len(ft.Records) == 0 {
		return errors.New("traceio: empty trace")
	}
	nf := len(ft.Records[0].Features)
	cw := csv.NewWriter(w)
	header := make([]string, 0, nf+3)
	for i := 0; i < nf; i++ {
		if i < len(ft.FeatureNames) {
			header = append(header, ft.FeatureNames[i])
		} else {
			header = append(header, fmt.Sprintf("f%d", i))
		}
	}
	header = append(header, "decision", "reward", "propensity")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, nf+3)
	for i, rec := range ft.Records {
		if len(rec.Features) != nf {
			return fmt.Errorf("traceio: record %d has %d features, want %d", i, len(rec.Features), nf)
		}
		row = row[:0]
		for _, f := range rec.Features {
			row = append(row, strconv.FormatFloat(f, 'g', -1, 64))
		}
		row = append(row,
			rec.Decision,
			strconv.FormatFloat(rec.Reward, 'g', -1, 64),
			strconv.FormatFloat(rec.Propensity, 'g', -1, 64))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (FlatTrace, error) {
	if err := resilience.Inject(resilience.PointTraceRead); err != nil {
		return FlatTrace{}, fmt.Errorf("traceio: read: %w", err)
	}
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return FlatTrace{}, fmt.Errorf("traceio: header: %w", err)
	}
	if len(header) < 3 {
		return FlatTrace{}, errors.New("traceio: header too short")
	}
	nf := len(header) - 3
	ft := FlatTrace{FeatureNames: append([]string(nil), header[:nf]...)}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return FlatTrace{}, fmt.Errorf("traceio: line %d: %w", line, err)
		}
		rec := FlatRecord{Features: make([]float64, nf)}
		for i := 0; i < nf; i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil {
				return FlatTrace{}, fmt.Errorf("traceio: line %d feature %d: %w", line, i, err)
			}
			rec.Features[i] = v
		}
		rec.Decision = row[nf]
		if rec.Reward, err = strconv.ParseFloat(row[nf+1], 64); err != nil {
			return FlatTrace{}, fmt.Errorf("traceio: line %d reward: %w", line, err)
		}
		if rec.Propensity, err = strconv.ParseFloat(row[nf+2], 64); err != nil {
			return FlatTrace{}, fmt.Errorf("traceio: line %d propensity: %w", line, err)
		}
		ft.Records = append(ft.Records, rec)
	}
	if len(ft.Records) == 0 {
		return FlatTrace{}, errors.New("traceio: no records")
	}
	return ft, nil
}

// WriteJSONL writes one JSON object per line.
func WriteJSONL(w io.Writer, ft FlatTrace) error {
	if len(ft.Records) == 0 {
		return errors.New("traceio: empty trace")
	}
	enc := json.NewEncoder(w)
	for _, rec := range ft.Records {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSON-lines trace.
func ReadJSONL(r io.Reader) (FlatTrace, error) {
	if err := resilience.Inject(resilience.PointTraceRead); err != nil {
		return FlatTrace{}, fmt.Errorf("traceio: read: %w", err)
	}
	dec := json.NewDecoder(r)
	var ft FlatTrace
	for {
		var rec FlatRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return FlatTrace{}, fmt.Errorf("traceio: record %d: %w", len(ft.Records)+1, err)
		}
		ft.Records = append(ft.Records, rec)
	}
	if len(ft.Records) == 0 {
		return FlatTrace{}, errors.New("traceio: no records")
	}
	return ft, nil
}

// ToCore converts a FlatTrace directly into a core trace over the flat
// types ([]float64 contexts are not comparable, so contexts are kept as
// FlatContext values and decisions as strings). This is the form
// cmd/dreval evaluates.
func ToCore(ft FlatTrace) core.Trace[FlatContext, string] {
	out := make(core.Trace[FlatContext, string], len(ft.Records))
	for i, rec := range ft.Records {
		out[i] = core.Record[FlatContext, string]{
			Context:    FlatContext{Features: rec.Features},
			Decision:   rec.Decision,
			Reward:     rec.Reward,
			Propensity: rec.Propensity,
		}
	}
	return out
}

// ParsePolicy builds a target policy over flat traces from a CLI/API
// specification string:
//
//	constant:<decision>  always choose <decision>
//	best-observed        per-context-group argmax of mean observed
//	                     reward, falling back to the global argmax for
//	                     unseen contexts
func ParsePolicy(spec string, trace core.Trace[FlatContext, string]) (core.Policy[FlatContext, string], error) {
	switch {
	case strings.HasPrefix(spec, "constant:"):
		d := strings.TrimPrefix(spec, "constant:")
		if d == "" {
			return nil, errors.New("traceio: constant policy needs a decision label")
		}
		return core.DeterministicPolicy[FlatContext, string]{
			Choose: func(FlatContext) string { return d },
		}, nil
	case spec == "best-observed":
		// Argmax tables are built once here, so Choose is a pure lookup.
		// Decisions are scanned in the order each group first logged
		// them and a tie keeps the earlier one, so equal means resolve
		// the same way on every call and every run.
		type cell struct {
			decision string
			sum      float64
			count    int
		}
		type group struct {
			cells map[string]*cell
			order []*cell // first-logged order
		}
		newGroup := func() *group { return &group{cells: map[string]*cell{}} }
		add := func(g *group, d string, r float64) {
			c := g.cells[d]
			if c == nil {
				c = &cell{decision: d}
				g.cells[d] = c
				g.order = append(g.order, c)
			}
			c.sum += r
			c.count++
		}
		best := func(g *group) string {
			bestD, bestV := "", -1e300
			for _, c := range g.order {
				if v := c.sum / float64(c.count); v > bestV {
					bestV, bestD = v, c.decision
				}
			}
			return bestD
		}
		groups := make(map[string]*group)
		global := newGroup()
		for _, rec := range trace {
			k := rec.Context.Key()
			g := groups[k]
			if g == nil {
				g = newGroup()
				groups[k] = g
			}
			add(g, rec.Decision, rec.Reward)
			add(global, rec.Decision, rec.Reward)
		}
		argmax := make(map[string]string, len(groups))
		for k, g := range groups {
			argmax[k] = best(g)
		}
		globalBest := best(global)
		return core.DeterministicPolicy[FlatContext, string]{
			Choose: func(c FlatContext) string {
				if d, ok := argmax[c.Key()]; ok {
					return d
				}
				return globalBest
			},
		}, nil
	default:
		return nil, fmt.Errorf("traceio: unknown policy %q (want constant:<decision> or best-observed)", spec)
	}
}

// FlatContext is a generic numeric feature-vector context.
type FlatContext struct {
	Features []float64
}

// Key returns a string key for grouping identical feature vectors (used
// for empirical propensity estimation and table models).
func (c FlatContext) Key() string {
	b, _ := json.Marshal(c.Features)
	return string(b)
}
