package traceio

import "drnet/internal/core"

// IngestBatch is one decoded, validated /ingest batch, staged for the
// WAL (Records, in EncodeBatch's form) and then the stream's view
// (AppendTo).
type IngestBatch struct {
	Records []FlatRecord
	// run is the batch as DecodeIngest staged it for the builder it
	// resolved the batch against. It is nil on a batch built from
	// records decoded elsewhere, which AppendTo appends record by record.
	run *core.Run[FlatContext, string]
}

// DecodeIngest decodes an /ingest body, {"records":[...]}, in one pass
// into a staged batch. vb is the builder the batch will join, keyed by
// FlatContext.Key: a record whose feature text is already one of its
// keys takes that context's code and vector, in a slot of its own,
// without parsing a number; only other text is parsed, for vb to key
// when the batch joins it.
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
	s := newEvalScanner(body, vb)
	var seen bool
	ok := s.document(func(key []byte) bool {
		if string(key) != "records" || seen {
			return false
		}
		seen = true
		return s.records()
	})
	r := &s.run
	// One rule: the reference path reports a record the view would
	// refuse, with its index.
	if !ok || len(r.Rewards) == 0 || r.Validate() != nil {
		return nil, false
	}
	b := &IngestBatch{Records: make([]FlatRecord, len(r.Rewards)), run: r}
	for i := range b.Records {
		b.Records[i] = FlatRecord{
			Features:   r.Contexts[r.CtxSlots[i]].Context.Features,
			Decision:   r.Decisions[r.DecSlots[i]],
			Reward:     r.Rewards[i],
			Propensity: r.Propensities[i],
		}
	}
	return b, true
}

// AppendTo appends the batch to vb, which must be the builder
// DecodeIngest resolved it against, in one AppendRun; a batch built
// from decoded records goes through Append, record by record, and
// stops at the first record vb refuses. A batch is appended once.
func (b *IngestBatch) AppendTo(vb *core.ViewBuilder[FlatContext, string]) error {
	if b.run != nil {
		return vb.AppendRun(b.run)
	}
	for _, r := range b.Records {
		err := vb.Append(core.Record[FlatContext, string]{
			Context:    FlatContext{Features: r.Features},
			Decision:   r.Decision,
			Reward:     r.Reward,
			Propensity: r.Propensity,
		})
		if err != nil {
			return err
		}
	}
	return nil
}
