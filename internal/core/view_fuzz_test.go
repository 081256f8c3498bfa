package core

import (
	"math"
	"strconv"
	"testing"

	"drnet/internal/mathx"
)

// fuzzTrace builds a deterministic valid base trace from seed, then
// overwrites record mutIdx%n with the fuzzer-chosen propensity and
// reward bit patterns — so the fuzzer explores the full float64 space
// (NaN, ±Inf, subnormals, -0, out-of-range) at an arbitrary position.
func fuzzTrace(seed int64, n uint16, mutIdx uint16, propBits, rewBits uint64) Trace[float64, int] {
	size := 1 + int(n)%256
	rng := mathx.NewRNG(seed)
	tr := make(Trace[float64, int], size)
	for i := range tr {
		tr[i] = Record[float64, int]{
			// Snap contexts to a grid so interning shares codes.
			Context:    float64(rng.Intn(7)) / 7,
			Decision:   rng.Intn(3),
			Reward:     rng.Normal(0, 1),
			Propensity: 0.05 + 0.95*rng.Float64(),
		}
	}
	i := int(mutIdx) % size
	tr[i].Propensity = math.Float64frombits(propBits)
	tr[i].Reward = math.Float64frombits(rewBits)
	return tr
}

// FuzzNewTraceView locks down two properties of the constructor:
//
//  1. Validation parity — NewTraceView accepts exactly the traces
//     Trace.Validate accepts, and rejects with the identical error
//     (same record index, same message) otherwise: NaN/Inf rewards and
//     propensities outside (0,1] (including NaN) must be rejected.
//  2. Interning round-trip — on accepted traces, the view's columns
//     plus dictionaries reconstruct the trace record-for-record, the
//     dictionaries are minimal and in first-occurrence order, and the
//     keyed constructor agrees with the comparable one.
func FuzzNewTraceView(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(5), uint64(0x3FE0000000000000), uint64(0x3FF0000000000000)) // valid: p=0.5, r=1
	f.Add(int64(2), uint16(50), uint16(0), uint64(0x7FF8000000000000), uint64(0))                   // NaN propensity at record 0
	f.Add(int64(3), uint16(80), uint16(79), uint64(0x3FF0000000000000), uint64(0x7FF8000000000000)) // NaN reward at last record
	f.Add(int64(4), uint16(40), uint16(7), uint64(0), uint64(0x3FE0000000000000))                   // zero propensity
	f.Add(int64(5), uint16(40), uint16(7), uint64(0x4000000000000000), uint64(0))                   // propensity 2 > 1
	f.Add(int64(6), uint16(60), uint16(30), uint64(0x3FF0000000000000), uint64(0x7FF0000000000000)) // +Inf reward
	f.Add(int64(7), uint16(60), uint16(30), uint64(0x8000000000000000), uint64(0))                  // propensity -0
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mutIdx uint16, propBits, rewBits uint64) {
		tr := fuzzTrace(seed, n, mutIdx, propBits, rewBits)
		wantErr := tr.Validate()
		v, gotErr := NewTraceView(tr)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("validation parity: Trace.Validate=%v NewTraceView=%v", wantErr, gotErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text: NewTraceView %q != Trace.Validate %q", gotErr.Error(), wantErr.Error())
			}
			return
		}
		// Round-trip: columns + dictionaries reconstruct the trace.
		if v.Len() != len(tr) {
			t.Fatalf("view length %d != %d", v.Len(), len(tr))
		}
		for i := range tr {
			if v.At(i) != tr[i] {
				t.Fatalf("record %d: reconstructed %+v != original %+v", i, v.At(i), tr[i])
			}
		}
		// Dictionary minimality and first-occurrence order.
		seenC := map[float64]bool{}
		seenD := map[int]bool{}
		var wantCtxs []float64
		var wantDecs []int
		for _, rec := range tr {
			if !seenC[rec.Context] {
				seenC[rec.Context] = true
				wantCtxs = append(wantCtxs, rec.Context)
			}
			if !seenD[rec.Decision] {
				seenD[rec.Decision] = true
				wantDecs = append(wantDecs, rec.Decision)
			}
		}
		gotCtxs := v.contexts
		if v.NumContexts() != len(wantCtxs) {
			t.Fatalf("context dictionary size %d != %d", len(gotCtxs), len(wantCtxs))
		}
		for i := range wantCtxs {
			if gotCtxs[i] != wantCtxs[i] {
				t.Fatalf("context dictionary[%d] = %v, want %v (first-occurrence order)", i, gotCtxs[i], wantCtxs[i])
			}
		}
		gotDecs := v.decisions
		if v.NumDecisions() != len(wantDecs) {
			t.Fatalf("decision dictionary size %d != %d", len(gotDecs), len(wantDecs))
		}
		for i := range wantDecs {
			if gotDecs[i] != wantDecs[i] {
				t.Fatalf("decision dictionary[%d] = %v, want %v (first-occurrence order)", i, gotDecs[i], wantDecs[i])
			}
		}
		// Keyed constructor with an injective key agrees column-for-column.
		kv, err := NewTraceViewKeyed(tr, func(c float64) string {
			return strconv.FormatFloat(c, 'g', -1, 64)
		})
		if err != nil {
			t.Fatalf("NewTraceViewKeyed on valid trace: %v", err)
		}
		if kv.NumContexts() != v.NumContexts() || kv.NumDecisions() != v.NumDecisions() {
			t.Fatalf("keyed dictionaries (%d,%d) != comparable (%d,%d)",
				kv.NumContexts(), kv.NumDecisions(), v.NumContexts(), v.NumDecisions())
		}
		for i := range tr {
			if kv.At(i) != tr[i] {
				t.Fatalf("keyed record %d: %+v != %+v", i, kv.At(i), tr[i])
			}
		}
		if v.MeanReward() != tr.MeanReward() {
			t.Fatalf("MeanReward %v != %v", v.MeanReward(), tr.MeanReward())
		}
	})
}
