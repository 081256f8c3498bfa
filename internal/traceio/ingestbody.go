package traceio

import "drnet/internal/core"

// IngestBatch is one decoded, validated /ingest batch, staged for the
// WAL (Records, in EncodeBatch's form) and then the stream's view
// (AppendTo).
type IngestBatch struct {
	Records []FlatRecord
	// places[i] is where record i's context interns in the builder
	// DecodeIngest resolved the batch against. It is nil on a batch
	// built from records decoded elsewhere, which AppendTo keys with
	// the builder's key function.
	places []place
}

// DecodeIngest decodes an /ingest body, {"records":[...]}, in one pass
// into a staged batch. vb is the builder the batch will join, keyed by
// FlatContext.Key: a record whose feature text is already one of its
// keys takes that context's code and vector without parsing a number
// or allocating, and only other text is parsed and keyed.
//
// It is the fast path of a body the caller would otherwise hand to
// encoding/json (DisallowUnknownFields, then ValidateFinite and
// Trace.Validate): the reference path. It accepts DecodeEvalView's
// canonical shape, with "records" the only key, and a non-empty batch
// of records that pass Trace.Validate. For any other body it reports
// false and never an error, so the caller runs the reference path on
// the same bytes and status codes and error texts stay its own. When
// it accepts, Records equal the reference path's, float bits
// included, except that a record without features may hold nil where
// the reference holds an empty vector; both encode and key alike.
func DecodeIngest(body []byte, vb *core.ViewBuilder[FlatContext, string]) (*IngestBatch, bool) {
	s := evalScanner{
		buf:      body,
		vb:       vb,
		ingest:   true,
		contexts: make(map[string]keyedContext),
		labels:   make(map[string]string),
	}
	b := new(IngestBatch)
	var seen bool
	ok := s.document(func(key []byte) bool {
		if string(key) != "records" || seen {
			return false
		}
		seen = true
		return s.records(b)
	})
	if !ok || len(b.Records) == 0 {
		return nil, false
	}
	return b, true
}

// records scans the batch's record array, staging each record that
// passes Trace.Validate.
func (s *evalScanner) records(b *IngestBatch) bool {
	if !s.byte('[') {
		return false
	}
	for first := true; ; first = false {
		if more, ok := s.next(']', first); !more {
			return ok
		}
		kc, rec, ok := s.record()
		// One rule: the reference path reports a record the view would
		// refuse, with its index.
		if !ok || (core.Trace[FlatContext, string]{rec}).Validate() != nil {
			return false
		}
		b.Records = append(b.Records, FlatRecord{
			Features:   kc.ctx.Features,
			Decision:   rec.Decision,
			Reward:     rec.Reward,
			Propensity: rec.Propensity,
		})
		b.places = append(b.places, kc.place)
	}
}

// AppendTo appends the batch to vb, which must be the builder
// DecodeIngest resolved it against: a known context by its code, a
// new one by the key decoding computed, and every record of a batch
// built from decoded records through Append. It stops at the first
// record vb refuses.
func (b *IngestBatch) AppendTo(vb *core.ViewBuilder[FlatContext, string]) error {
	for i, r := range b.Records {
		rec := core.Record[FlatContext, string]{
			Context:    FlatContext{Features: r.Features},
			Decision:   r.Decision,
			Reward:     r.Reward,
			Propensity: r.Propensity,
		}
		var err error
		switch {
		case b.places == nil:
			err = vb.Append(rec)
		case b.places[i].key == "":
			err = vb.AppendCode(b.places[i].code, rec)
		default:
			err = vb.AppendKeyed(b.places[i].key, rec)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
