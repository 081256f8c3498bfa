package traceio

import (
	"encoding/json"
	"fmt"
	"testing"

	"drnet/internal/core"
)

// knownBuilder is a stream builder already holding the contexts
// [1,2] (code 0) and [0.25,0.5,1] (code 1).
func knownBuilder(t testing.TB) *core.ViewBuilder[FlatContext, string] {
	t.Helper()
	vb := core.NewViewBuilderKeyed[FlatContext, string](FlatContext.Key)
	for _, f := range [][]float64{{1, 2}, {0.25, 0.5, 1}} {
		if err := vb.Append(core.Record[FlatContext, string]{Context: FlatContext{Features: f}, Decision: "a", Reward: 1, Propensity: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	return vb
}

// TestDecodeIngestInternsByRawText: feature text equal to one of the
// builder's keys takes that context's code and vector; any other
// spelling of the same vector is parsed, and joins the same context
// when the batch is appended; new text becomes a new context.
func TestDecodeIngestInternsByRawText(t *testing.T) {
	vb := knownBuilder(t)
	const r = `"decision":"a","reward":1,"propensity":0.5`
	body := `{"records":[{"features":[0.25,0.5,1],` + r + `},{"features":[1.0, 2.0],` + r + `},{"features":[1,2],` + r + `},{"features":[3],` + r + `}]}`
	b, ok := DecodeIngest([]byte(body), vb)
	if !ok {
		t.Fatal("fast path refused a canonical body")
	}
	type place struct {
		features []float64
		code     int32
	}
	want := []place{{[]float64{0.25, 0.5, 1}, 1}, {[]float64{1, 2}, -1}, {[]float64{1, 2}, 0}, {[]float64{3}, -1}}
	var got []place
	for _, slot := range b.run.CtxSlots {
		c := b.run.Contexts[slot]
		got = append(got, place{c.Context.Features, c.Code})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("placements %+v, want %+v", got, want)
	}
	if err := b.AppendTo(vb); err != nil {
		t.Fatal(err)
	}
	v := vb.Snapshot()
	if v.NumContexts() != 3 {
		t.Fatalf("%d contexts, want 3", v.NumContexts())
	}
	for i, code := range []int{1, 0, 0, 2} {
		if got := v.ContextCode(2 + i); got != code {
			t.Fatalf("record %d: context code %d, want %d", i, got, code)
		}
	}
}

// TestDecodeIngestAllocsPerBatch: over contexts the builder holds, a
// decode allocates per batch, not per record, so ten times the records
// cost a small constant more (the staged slices' growth).
func TestDecodeIngestAllocsPerBatch(t *testing.T) {
	vb := knownBuilder(t)
	allocs := func(n int) float64 {
		recs := make([]FlatRecord, n)
		for i := range recs {
			recs[i] = FlatRecord{Features: [][]float64{{1, 2}, {0.25, 0.5, 1}}[i%2], Decision: []string{"a", "b", "c"}[i%3], Reward: float64(i) / 7, Propensity: 0.5}
		}
		body, err := json.Marshal(map[string]any{"records": recs})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, ok := DecodeIngest(body, vb); !ok {
				t.Fatalf("fast path refused a canonical %d-record body", n)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("allocations: %.0f for 100 records, %.0f for 1000", small, large)
	if large > small+12 {
		t.Fatalf("1000 records allocate %.0f times, 100 records %.0f", large, small)
	}
}

// TestDecodeIngestFallsBack: every body outside the canonical shape, and
// every batch the reference path refuses, goes back to it.
func TestDecodeIngestFallsBack(t *testing.T) {
	const r = `"decision":"a","reward":1,"propensity":0.5`
	for _, c := range []struct{ name, body string }{
		{"unknown key", `{"records":[{"features":[1],` + r + `}],"extra":1}`},
		{"repeated key", `{"records":[{"features":[1],"features":[1],` + r + `}]}`},
		{"key case", `{"Records":[{"features":[1],` + r + `}]}`},
		{"null features", `{"records":[{"features":null,` + r + `}]}`},
		{"escape", `{"records":[{"features":[1],"decision":"\u0061","reward":1,"propensity":0.5}]}`},
		{"out of range", `{"records":[{"features":[1e400],` + r + `}]}`},
		{"trailing bytes", `{"records":[{"features":[1],` + r + `}]} {}`},
		{"empty batch", `{"records":[]}`},
		{"no records", `{}`},
		{"propensity 0", `{"records":[{"features":[1],"decision":"a","reward":1,"propensity":0}]}`},
	} {
		if _, ok := DecodeIngest([]byte(c.body), knownBuilder(t)); ok {
			t.Errorf("%s: fast path accepted %s", c.name, c.body)
		}
	}
}
