package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	for k := 0; k < a.NumDecisions(); k++ {
		if a.DecisionValue(k) != b.DecisionValue(k) {
			return fmt.Errorf("decision %d: %q, reference %q", k, a.DecisionValue(k), b.DecisionValue(k))
		}
	}
	return nil
}
