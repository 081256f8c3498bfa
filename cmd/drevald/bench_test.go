package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"drnet/internal/traceio"
)

// wideBody is an eval_wide-shaped /evaluate body: 8,000 records over
// 1,000 three-feature contexts on a quarter-step grid, decisions a, b
// and c logged at propensities 0.7, 0.15 and 0.15, best-observed, no
// bootstrap.
func wideBody(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	const contexts = 1000
	favoured := make([]int, contexts)
	for c := range favoured {
		favoured[c] = rng.Intn(3)
	}
	recs := make([]traceio.FlatRecord, 8000)
	for i := range recs {
		c := i
		if i >= contexts {
			c = rng.Intn(contexts)
		}
		d, prop := favoured[c], 0.7
		if u := rng.Float64(); u >= 0.7 {
			d, prop = (d+1+min(int((u-0.7)/0.15), 1))%3, 0.15
		}
		recs[i] = traceio.FlatRecord{
			Features:   []float64{float64(c%10) / 4, float64(c/10%10) / 4, float64(c/100%10) / 4},
			Decision:   []string{"a", "b", "c"}[d],
			Reward:     rng.Float64(),
			Propensity: prop,
		}
	}
	body, err := json.Marshal(evalRequest{Trace: recs, Policy: "best-observed"})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkEvaluateWide times one eval_wide-shaped /evaluate request
// through the server's routes, middleware and wide event included.
func BenchmarkEvaluateWide(b *testing.B) {
	body := wideBody(b)
	h := newTestServer(b, nil).routes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/evaluate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
