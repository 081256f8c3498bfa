package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"drnet/internal/core"
	"drnet/internal/traceio"
)

// FuzzParseEvalRequest throws arbitrary bytes at /evaluate through the
// server's routes, so a mutation reaches everything a body can: the
// decode, the one fold, the bias observatory, the bootstrap and the
// degraded fallback. The contract under fuzzing: never a 500 (the
// middleware answers a panic with one), every 200 is an evalResponse
// over a non-empty trace, and every other answer is a 400 or a 422.
func FuzzParseEvalRequest(f *testing.F) {
	// A well-formed request as the seed the mutator grows from.
	valid, err := json.Marshal(evalRequest{
		Trace: []traceio.FlatRecord{
			{Features: []float64{1}, Decision: "a", Reward: 0.5, Propensity: 0.5},
			{Features: []float64{2}, Decision: "b", Reward: 1.0, Propensity: 0.5},
		},
		Policy:  "constant:a",
		Options: evalOptions{Bootstrap: 10, Seed: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"trace":[],"policy":"constant:a"}`))
	f.Add([]byte(`{"trace":[{"features":[1],"decision":"a","reward":1,"propensity":0}],"policy":"constant:a"}`))
	f.Add([]byte(`{"trace":[{"features":[1],"decision":"a","reward":1,"propensity":2}],"policy":"best-observed"}`))
	f.Add([]byte(`{"trace":null,"policy":null}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"trace":[{"features":[1e309],"decision":"a","reward":1,"propensity":0.5}],"policy":"constant:a"}`))
	f.Add([]byte(``))
	h := newTestServer(f, nil).routes()
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/evaluate", bytes.NewReader(data)))
		switch rec.Code {
		case http.StatusOK:
			var resp evalResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not an evalResponse: %v\n%s", err, rec.Body)
			}
			if resp.Diagnostics.N <= 0 {
				t.Fatalf("200 over an empty trace: %s", rec.Body)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}

// FuzzDecodeEvalView is the fast path's differential check: whenever
// decodeEvalFast accepts a body, the reference path (encoding/json,
// then buildEvalView) must accept the same bytes with the same policy
// and options, a view equal to the fast path's in every column and
// dictionary, and a policy that decides every context alike. The
// checked-in corpus covers each class of body the fast path hands back.
func FuzzDecodeEvalView(f *testing.F) {
	f.Add([]byte(`{"trace":[{"features":[0.25,0.5],"decision":"cdn-a","reward":0.75,"propensity":0.7}],"policy":"best-observed"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, view, ok := decodeEvalFast(data)
		if !ok {
			return
		}
		ref, err := decodeEvalBody(data)
		if err != nil {
			t.Fatalf("fast path accepted a body the reference path rejects: %v", err)
		}
		refView, err := buildEvalView(ref)
		if err != nil {
			t.Fatalf("fast path accepted a trace the reference path rejects: %v", err)
		}
		if req.Policy != ref.Policy || req.Options != ref.Options || req.Trace != nil {
			t.Fatalf("request %+v, reference %+v", req, ref)
		}
		if err := sameView(view, refView); err != nil {
			t.Fatal(err)
		}
		policy, err := traceio.ParsePolicyView(req.Policy, view)
		refPolicy, refErr := traceio.ParsePolicyView(ref.Policy, refView)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("policy error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		probe := []traceio.FlatContext{{Features: []float64{math.MaxFloat64}}}
		for i := 0; i < view.Len(); i++ {
			probe = append(probe, view.At(i).Context)
		}
		for _, c := range probe {
			if got, want := policy.Distribution(c), refPolicy.Distribution(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("context %v: policy %v, reference %v", c.Features, got, want)
			}
		}
	})
}

// sameView compares two views column by column and entry by entry,
// floats by their bits. Equal context-code columns also make the
// first-occurrence indexes equal, so each record's context is its
// code's dictionary entry on both sides.
func sameView(a, b *core.TraceView[traceio.FlatContext, string]) error {
	if a.Len() != b.Len() || a.NumContexts() != b.NumContexts() || a.NumDecisions() != b.NumDecisions() {
		return fmt.Errorf("view shape %d/%d/%d, reference %d/%d/%d",
			a.Len(), a.NumContexts(), a.NumDecisions(), b.Len(), b.NumContexts(), b.NumDecisions())
	}
	bits := math.Float64bits
	for i := 0; i < a.Len(); i++ {
		if bits(a.RewardAt(i)) != bits(b.RewardAt(i)) || bits(a.PropensityAt(i)) != bits(b.PropensityAt(i)) ||
			a.ContextCode(i) != b.ContextCode(i) || a.DecisionCode(i) != b.DecisionCode(i) {
			return fmt.Errorf("record %d: %+v, reference %+v", i, a.At(i), b.At(i))
		}
	}
	for i := 0; i < a.Len(); i++ {
		fa, fb := a.At(i).Context.Features, b.At(i).Context.Features
		same := len(fa) == len(fb) && (fa == nil) == (fb == nil)
		for j := 0; same && j < len(fa); j++ {
			same = bits(fa[j]) == bits(fb[j])
		}
		if !same {
			return fmt.Errorf("context %d: features %v, reference %v", a.ContextCode(i), fa, fb)
		}
	}
	// Every decision code occurs in some record, so comparing each
	// record's decision compares the dictionaries.
	for i := 0; i < a.Len(); i++ {
		if da, db := a.At(i).Decision, b.At(i).Decision; da != db {
			return fmt.Errorf("record %d: decision %q, reference %q", i, da, db)
		}
	}
	return nil
}

// seededIngestBuilder is a stream builder that already holds the
// contexts [], [0], [-0], [1,2] and [0.25,0.5,1], so bodies naming them
// take DecodeIngest's known-text path.
func seededIngestBuilder(t *testing.T) *core.ViewBuilder[traceio.FlatContext, string] {
	t.Helper()
	vb := core.NewViewBuilderKeyed[traceio.FlatContext, string](traceio.FlatContext.Key)
	for _, f := range [][]float64{{}, {0}, {math.Copysign(0, -1)}, {1, 2}, {0.25, 0.5, 1}} {
		rec := core.Record[traceio.FlatContext, string]{Context: traceio.FlatContext{Features: f}, Decision: "a", Reward: 1, Propensity: 0.5}
		if err := vb.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return vb
}

// FuzzDecodeIngest is the /ingest fast path's differential check.
// Whenever traceio.DecodeIngest accepts a body against a seeded
// builder, the reference path (decodeIngestBody) must accept the same
// bytes with the same records, floats compared by their bits and a nil
// and an empty feature vector alike; both batches must encode to
// byte-identical WAL frames; and appending each to its own copy of the
// builder must leave equal views. The checked-in corpus covers each
// class of body the fast path hands back, and the spellings that miss
// the known-text lookup and are parsed instead.
func FuzzDecodeIngest(f *testing.F) {
	f.Add([]byte(`{"records":[{"features":[0.25,0.5,1],"decision":"cdn-a","reward":0.75,"propensity":0.7}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		vb := seededIngestBuilder(t)
		batch, ok := traceio.DecodeIngest(data, vb)
		if !ok {
			return
		}
		ref, _, err := decodeIngestBody(data)
		if err != nil {
			t.Fatalf("fast path accepted a body the reference path rejects: %v", err)
		}
		if err := sameRecords(batch.Records, ref.Records); err != nil {
			t.Fatal(err)
		}
		if got, want := traceio.EncodeBatch(nil, batch.Records), traceio.EncodeBatch(nil, ref.Records); !bytes.Equal(got, want) {
			t.Fatalf("WAL frame %x, reference %x", got, want)
		}
		refVB := seededIngestBuilder(t)
		if err := batch.AppendTo(vb); err != nil {
			t.Fatalf("staged batch refused by its builder: %v", err)
		}
		if err := ref.AppendTo(refVB); err != nil {
			t.Fatalf("reference batch refused: %v", err)
		}
		if err := sameView(vb.Snapshot(), refVB.Snapshot()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFuzzCorpusNamesMatchPath reads every checked-in entry of the two
// differential fuzzers' corpora and requires its name to say which path
// the body takes: an accept- entry (and an /ingest miss- entry, whose
// spellings miss the known-text lookup and are parsed) is taken by the
// fast path, a fallback- entry is handed back to the reference path.
func TestFuzzCorpusNamesMatchPath(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		fuzzer string
		fast   func(body []byte) bool
		// prefixes maps each entry-name prefix to whether the fast
		// path must take the body.
		prefixes map[string]bool
	}{
		{
			fuzzer:   "FuzzDecodeEvalView",
			fast:     func(body []byte) bool { _, _, ok := decodeEvalFast(body); return ok },
			prefixes: map[string]bool{"accept": true, "fallback": false},
		},
		{
			fuzzer: "FuzzDecodeIngest",
			fast: func(body []byte) bool {
				_, ok := traceio.DecodeIngest(body, seededIngestBuilder(t))
				return ok
			},
			prefixes: map[string]bool{"accept": true, "miss": true, "fallback": false},
		},
	} {
		dir := filepath.Join("testdata", "fuzz", tc.fuzzer)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s: empty corpus", dir)
		}
		for _, e := range entries {
			name := tc.fuzzer + "/" + e.Name()
			prefix, _, _ := strings.Cut(e.Name(), "-")
			wantFast, known := tc.prefixes[prefix]
			if !known {
				t.Errorf("%s: prefix %q names no path", name, prefix)
				continue
			}
			if got := tc.fast(readCorpusEntry(t, filepath.Join(dir, e.Name()))); got != wantFast {
				t.Errorf("%s: fast path took it = %v, want %v", name, got, wantFast)
			}
		}
	}
}

// readCorpusEntry decodes a "go test fuzz v1" corpus file holding one
// []byte value.
func readCorpusEntry(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, value, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	inner, ok := strings.CutPrefix(value, "[]byte(")
	inner, ok2 := strings.CutSuffix(inner, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		t.Fatalf("%s: not a one-[]byte corpus entry", path)
	}
	s, err := strconv.Unquote(inner)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// sameRecords compares two decoded batches field by field, floats by
// their bits, with a nil and an empty feature vector alike.
func sameRecords(a, b []traceio.FlatRecord) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records, reference %d", len(a), len(b))
	}
	bits := math.Float64bits
	for i := range a {
		ra, rb := a[i], b[i]
		same := ra.Decision == rb.Decision && len(ra.Features) == len(rb.Features) &&
			bits(ra.Reward) == bits(rb.Reward) && bits(ra.Propensity) == bits(rb.Propensity)
		for j := 0; same && j < len(ra.Features); j++ {
			same = bits(ra.Features[j]) == bits(rb.Features[j])
		}
		if !same {
			return fmt.Errorf("record %d: %+v, reference %+v", i, ra, rb)
		}
	}
	return nil
}
