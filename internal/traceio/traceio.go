// Package traceio serializes off-policy evaluation traces to CSV and
// JSON-lines so they can move between the trace-collection tools
// (cmd/tracegen), the evaluator CLI (cmd/dreval) and external systems.
//
// The on-disk schema is deliberately flat: numeric client features, a
// string decision label, the observed reward and the logging propensity.
// Generic traces are converted with Flatten. drevald's request bodies
// are read by DecodeEvalView (evalbody.go), which decodes the canonical
// /evaluate body straight into a TraceView, and DecodeIngest
// (ingestbody.go), which stages a canonical /ingest body for the WAL
// and the stream's view.
package traceio

import (
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
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
//
// It is ParsePolicyView over the trace's keyed view, so for
// best-observed the trace must pass Trace.Validate.
func ParsePolicy(spec string, trace core.Trace[FlatContext, string]) (core.Policy[FlatContext, string], error) {
	if spec != "best-observed" {
		return ParsePolicyView(spec, nil)
	}
	view, err := core.NewTraceViewKeyed(trace, FlatContext.Key)
	if err != nil {
		return nil, err
	}
	return ParsePolicyView(spec, view)
}

// ParsePolicyView is ParsePolicy over a view already built with
// FlatContext.Key: best-observed is core.FitBestObserved of the view.
// A constant policy ignores the view, which may then be nil.
func ParsePolicyView(spec string, view *core.TraceView[FlatContext, string]) (core.Policy[FlatContext, string], error) {
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
		return core.FitBestObserved(view), nil
	default:
		return nil, fmt.Errorf("traceio: unknown policy %q (want constant:<decision> or best-observed)", spec)
	}
}

// FlatContext is a generic numeric feature-vector context.
type FlatContext struct {
	Features []float64
}

// Key returns a string key for grouping identical feature vectors (used
// for empirical propensity estimation and table models): the vector's
// JSON text, with a nil vector keyed like an empty one, so a record
// without features is one context however it was decoded. Features
// must be finite (ValidateFinite); JSON cannot encode NaN or ±Inf.
func (c FlatContext) Key() string {
	if len(c.Features) == 0 {
		return "[]"
	}
	//lint:allow hotalloc once per distinct context: decoders memoise the key and views intern by it
	b, _ := json.Marshal(c.Features)
	return string(b)
}

// bitsKey keys the contexts of a request's own view (DecodeEvalView)
// by each feature's float64 bits, eight little-endian bytes apiece,
// built on the stack for up to eight features: one allocation, for the
// string, where Key runs json.Marshal. It groups vectors exactly as Key
// does: both are injective on finite vectors, tell -0 from +0 and give
// nil and empty vectors one key, so a view keyed by either has the same
// codes and dictionaries. Every other keyed builder keeps Key: the
// stream's, whose keys knownContext matches against raw /ingest text,
// and the reference path's, which the fast path is checked against.
func bitsKey(c FlatContext) string {
	var buf [64]byte
	b := buf[:0]
	for _, f := range c.Features {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return string(b)
}

// knownContext resolves raw feature-array text from a request body to
// the context vb interned under it, when that text is one of vb's
// keys; vb must key by FlatContext.Key. It parses no number: Key is
// the encoding/json text of the features, and Go formats a float64 so
// that it parses back to the same bits, so a raw text equal to a key
// decodes to exactly that key's features. Any other spelling ([1.0],
// [ 1 ], [1e0]) misses, is parsed and keyed, and so interns with [1]
// as the reference path's does; -0 and 0 keep distinct keys, and []
// is one key however a record spells no features. A change of Key's
// format must revisit this.
func knownContext(vb *core.ViewBuilder[FlatContext, string], raw []byte) (int32, FlatContext, bool) {
	return vb.Known(raw)
}

// ValidateFinite rejects non-finite numerics with a record-addressed
// message. Standard JSON cannot encode NaN or ±Inf, but CSV and
// permissive clients can, and a NaN that slips through poisons every
// weighted sum downstream and every context key.
func ValidateFinite(records []FlatRecord) error {
	for i, rec := range records {
		if math.IsNaN(rec.Reward) || math.IsInf(rec.Reward, 0) {
			return fmt.Errorf("record %d: reward must be finite, got %g", i, rec.Reward)
		}
		if math.IsNaN(rec.Propensity) || math.IsInf(rec.Propensity, 0) {
			return fmt.Errorf("record %d: propensity must be finite, got %g", i, rec.Propensity)
		}
		for j, f := range rec.Features {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("record %d: feature %d must be finite, got %g", i, j, f)
			}
		}
	}
	return nil
}
