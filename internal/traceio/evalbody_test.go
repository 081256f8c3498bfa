package traceio

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"drnet/internal/biasobs"
)

// evalBody marshals an n-record request over a fixed population of
// distinct three-feature contexts, labelled with several-byte decisions,
// with rewards drawn by rng.Float64: about a third of them print with a
// mantissa of 2^53 or more, which only the 128-bit number step takes.
func evalBody(t testing.TB, n, contexts int) []byte {
	return evalBodyWith(t, n, contexts, (*rand.Rand).Float64)
}

// evalBodyWith is evalBody with rewards drawn by reward.
func evalBodyWith(t testing.TB, n, contexts int, reward func(*rand.Rand) float64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	labels := []string{"cdn-alpha", "cdn-beta", "cdn-gamma"}
	recs := make([]FlatRecord, n)
	for i := range recs {
		c := i % contexts
		recs[i] = FlatRecord{
			Features:   []float64{float64(c%10) / 4, float64(c/10%10) / 4, float64(c / 100)},
			Decision:   labels[rng.Intn(len(labels))],
			Reward:     reward(rng),
			Propensity: 0.7,
		}
	}
	body, err := json.Marshal(EvalRequest{Trace: recs, Policy: "best-observed", Options: EvalOptions{Clip: 10}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecodeEvalViewAllocsPerContext: decoding allocates per distinct
// context and label, not per record, so doubling the records over the
// same contexts adds at most 1% to the allocations.
func TestDecodeEvalViewAllocsPerContext(t *testing.T) {
	allocs := func(n int) float64 {
		body := evalBody(t, n, 1000)
		return testing.AllocsPerRun(3, func() {
			if _, _, ok := DecodeEvalView(body); !ok {
				t.Fatalf("fast path refused a canonical %d-record body", n)
			}
		})
	}
	small, large := allocs(8000), allocs(16000)
	t.Logf("allocations: %.0f for 8000 records, %.0f for 16000", small, large)
	if large > small*1.01 {
		t.Fatalf("16000 records allocate %.0f times, 8000 records %.0f: more than 1%% growth", large, small)
	}
}

// BenchmarkDecodeEvalView times the request decode layer alone on an
// 8,000-record body over 1,000 contexts, with rewards drawn by
// rng.Float64 (some take the 128-bit number step) or with three
// decimals (none reach it).
func BenchmarkDecodeEvalView(b *testing.B) {
	for _, c := range []struct {
		name   string
		reward func(*rand.Rand) float64
	}{
		{"float64-rewards", (*rand.Rand).Float64},
		{"short-decimals", func(rng *rand.Rand) float64 { return float64(rng.Intn(1000)) / 1000 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			body := evalBodyWith(b, 8000, 1000, c.reward)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := DecodeEvalView(body); !ok {
					b.Fatal("fast path refused a canonical body")
				}
			}
		})
	}
}

// TestBiasObservatoryAllocsPerContext: the bias observatory reads
// best-observed off core's table by context code, so a view with 1,000
// distinct contexts costs it no more allocations than one with 100,
// beyond a small constant. Asking the policy by context value would
// re-key every context through FlatContext.Key.
func TestBiasObservatoryAllocsPerContext(t *testing.T) {
	allocs := func(contexts int) float64 {
		_, view, ok := DecodeEvalView(evalBody(t, 8000, contexts))
		if !ok {
			t.Fatal("fast path refused a canonical body")
		}
		policy, err := ParsePolicyView("best-observed", view)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := biasobs.ComputeCtx(context.Background(), view, policy, biasobs.Config{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("allocations: %.0f at 100 contexts, %.0f at 1000", small, large)
	if large > small+64 {
		t.Fatalf("1000 contexts allocate %.0f times, 100 contexts %.0f: the observatory allocates per context", large, small)
	}
}

func TestDecodeEvalViewRequest(t *testing.T) {
	body := evalBody(t, 50, 7)
	req, view, ok := DecodeEvalView(body)
	if !ok {
		t.Fatal("fast path refused a canonical body")
	}
	if req.Policy != "best-observed" || req.Options != (EvalOptions{Clip: 10}) || req.Trace != nil {
		t.Fatalf("request %+v", req)
	}
	if view.Len() != 50 || view.NumContexts() != 7 || view.NumDecisions() != 3 {
		t.Fatalf("view has %d records, %d contexts, %d decisions", view.Len(), view.NumContexts(), view.NumDecisions())
	}
}

// TestDecodeEvalViewShape lists the body shapes the fast path takes
// and each class it hands back to the reference path.
func TestDecodeEvalViewShape(t *testing.T) {
	rec := `{"features":[1,2],"decision":"a","reward":0.5,"propensity":0.5}`
	body := func(trace, rest string) string { return `{"trace":[` + trace + `]` + rest + `}` }
	accept := map[string]string{
		"canonical":           body(rec, `,"policy":"constant:a","options":{"clip":1.5,"selfNormalize":true,"estimatePropensities":false,"bootstrap":3,"seed":-4,"refreshModel":true}`),
		"whitespace":          " {\n\t\"trace\" : [ {\"features\" : [ 1 , 2 ] , \"decision\":\"a\" ,\"reward\":5e-1,\"propensity\":1} ] } \r\n",
		"missing fields":      body(`{"reward":1,"propensity":1}`, ``),
		"empty features":      body(`{"features":[],"propensity":1}`, ``),
		"negative zero":       body(`{"features":[-0],"reward":-0,"propensity":1}`, ``),
		"large numbers":       body(`{"features":[1e308,-1.5E+307],"propensity":1e-300}`, ``),
		"empty options":       body(rec, `,"options":{}`),
		"fields in any order": `{"policy":"best-observed","options":{"seed":1},"trace":[{"propensity":0.5,"reward":1,"decision":"b","features":[3]}]}`,
	}
	for name, b := range accept {
		if _, _, ok := DecodeEvalView([]byte(b)); !ok {
			t.Errorf("%s: refused %s", name, b)
		}
	}
	refuse := map[string]string{
		"empty body":         ``,
		"not an object":      `[1]`,
		"unknown key":        body(rec, `,"extra":1`),
		"unknown record key": body(`{"features":[1],"weight":1,"propensity":1}`, ``),
		"key case":           `{"Trace":[` + rec + `]}`,
		"record key case":    body(`{"Reward":1,"propensity":1}`, ``),
		"escaped string":     body(`{"decision":"\u0061","propensity":1}`, ``),
		"non-ASCII string":   body(`{"decision":"é","propensity":1}`, ``),
		"control character":  body("{\"decision\":\"a\tb\",\"propensity\":1}", ``),
		"null features":      body(`{"features":null,"propensity":1}`, ``),
		"null options":       body(rec, `,"options":null`),
		"null policy":        body(rec, `,"policy":null`),
		"out of range":       body(`{"reward":1e400,"propensity":1}`, ``),
		"leading zero":       body(`{"reward":01,"propensity":1}`, ``),
		"bare fraction":      body(`{"reward":.5,"propensity":1}`, ``),
		"plus sign":          body(`{"reward":+1,"propensity":1}`, ``),
		"hex number":         body(`{"reward":0x1,"propensity":1}`, ``),
		"infinity":           body(`{"reward":Infinity,"propensity":1}`, ``),
		"nested features":    body(`{"features":[[1]],"propensity":1}`, ``),
		"empty trace":        `{"trace":[],"policy":"constant:a"}`,
		"no trace":           `{"policy":"constant:a"}`,
		"invalid propensity": body(`{"propensity":0}`, ``),
		"duplicate key":      body(rec, `,"policy":"constant:a","policy":"best-observed"`),
		"duplicate field":    body(`{"reward":1,"reward":2,"propensity":1}`, ``),
		"duplicate option":   body(rec, `,"options":{"seed":1,"seed":2}`),
		"fractional integer": body(rec, `,"options":{"bootstrap":1.5}`),
		"exponent integer":   body(rec, `,"options":{"seed":1e2}`),
		"string for bool":    body(rec, `,"options":{"selfNormalize":"true"}`),
		"trailing data":      body(rec, ``) + ` {}`,
		"trailing comma":     body(rec+`,`, ``),
		"truncated":          strings.TrimSuffix(body(rec, ``), `}`),
	}
	for name, b := range refuse {
		if _, _, ok := DecodeEvalView([]byte(b)); ok {
			t.Errorf("%s: accepted %s", name, b)
		}
	}
}
