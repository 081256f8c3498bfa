package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newTracedRegistry returns a registry with a recorder of the given
// capacity installed.
func newTracedRegistry(capacity int) (*Registry, *TraceRecorder) {
	r := NewRegistry()
	tr := NewTraceRecorder(capacity)
	r.SetTraceRecorder(tr)
	return r, tr
}

// ringRecords returns the spans a quiescent tr holds, oldest first.
func ringRecords(tr *TraceRecorder) []spanRecord {
	n := tr.next.Load()
	var out []spanRecord
	for i := range tr.slots {
		if p := tr.slots[(n+uint64(i))%uint64(len(tr.slots))].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

func TestTraceRecorderKeepsParentChildStructure(t *testing.T) {
	r, tr := newTracedRegistry(16)
	root := r.StartSpan("request")
	root.Attr("route", "/evaluate")
	child := root.StartChild("bootstrap")
	grand := child.StartChild("resample")
	grand.End()
	child.End()
	root.End()

	recs := ringRecords(tr)
	if len(recs) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(recs))
	}
	// Commit order is End order: grand, child, root.
	if recs[0].Name != "resample" || recs[1].Name != "bootstrap" || recs[2].Name != "request" {
		t.Fatalf("unexpected commit order: %v %v %v", recs[0].Name, recs[1].Name, recs[2].Name)
	}
	for _, rec := range recs {
		if rec.Trace != root.id {
			t.Fatalf("span %s has trace %q, want %q", rec.Name, rec.Trace, root.id)
		}
	}
	if recs[2].Parent != "" {
		t.Fatalf("root has parent %q", recs[2].Parent)
	}
	if recs[1].Parent != recs[2].Span {
		t.Fatalf("bootstrap parent %q != request span %q", recs[1].Parent, recs[2].Span)
	}
	if recs[0].Parent != recs[1].Span {
		t.Fatalf("resample parent %q != bootstrap span %q", recs[0].Parent, recs[1].Span)
	}
	if recs[2].Attrs["route"] != "/evaluate" {
		t.Fatalf("root attrs = %v", recs[2].Attrs)
	}
}

func TestTraceRecorderBoundedMemoryEviction(t *testing.T) {
	r, tr := newTracedRegistry(8)
	for i := 0; i < 100; i++ {
		r.StartSpan(fmt.Sprintf("s%d", i)).End()
	}
	recs := ringRecords(tr)
	if len(recs) != 8 {
		t.Fatalf("ring holds %d records, want capacity 8", len(recs))
	}
	// Only the newest 8 survive, in commit order.
	for i, rec := range recs {
		want := fmt.Sprintf("s%d", 92+i)
		if rec.Name != want {
			t.Fatalf("slot %d = %q, want %q (old spans must be evicted)", i, rec.Name, want)
		}
	}
	if got := tr.next.Load(); got != 100 {
		t.Fatalf("recorded %d spans, want 100", got)
	}
}

func TestTraceRecorderConcurrentWriters(t *testing.T) {
	r, tr := newTracedRegistry(64)
	const writers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := r.StartSpan("work")
				sp.Attr("writer", fmt.Sprint(w))
				if i%3 == 0 {
					sp.SetError("synthetic")
				}
				sp.StartChild("inner").End()
				sp.End()
			}
		}(w)
	}
	// Concurrent readers must see consistent records while the ring is
	// being overwritten.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for j := range tr.slots {
				if rec := tr.slots[j].Load(); rec != nil && rec.Name != "work" && rec.Name != "inner" {
					t.Errorf("torn record name %q", rec.Name)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got, want := tr.next.Load(), uint64(writers*each*2); got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
	if got := len(ringRecords(tr)); got != 64 {
		t.Fatalf("ring holds %d, want 64", got)
	}
}

func TestSpanErrorCounterAndExemplar(t *testing.T) {
	r, _ := newTracedRegistry(8)
	sp := r.StartSpanWithID("op", "trace-err")
	sp.SetError("boom")
	sp.End()
	if got := r.Counter(spanErrors, L("span", "op")).Value(); got != 1 {
		t.Fatalf("obs_span_errors_total = %d, want 1", got)
	}
	// A clean span of a different name neither bumps the error counter
	// nor overwrites op's exemplar.
	ok := r.StartSpan("op2")
	ok.End()
	if got := r.Counter(spanErrors, L("span", "op")).Value(); got != 1 {
		t.Fatalf("clean span bumped the error counter: %d", got)
	}

	// The duration histogram carries the trace ID as a bucket exemplar
	// in the OpenMetrics exposition only: the classic 0.0.4 text format
	// cannot represent exemplars (Prometheus would reject the scrape),
	// so WritePrometheus must omit them.
	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# {trace_id="trace-err"}`) {
		t.Fatalf("openmetrics exposition missing exemplar:\n%s", out)
	}
	if !strings.Contains(out, `obs_span_errors_total{span="op"} 1`) {
		t.Fatalf("exposition missing error counter:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE obs_span_errors counter\n") {
		t.Fatalf("openmetrics counter metadata must drop _total:\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("openmetrics exposition missing # EOF terminator:\n%s", out)
	}
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	classic := sb.String()
	if strings.Contains(classic, " # {") {
		t.Fatalf("classic 0.0.4 exposition must not carry exemplars:\n%s", classic)
	}
	if !strings.Contains(classic, `obs_span_errors_total{span="op"} 1`) {
		t.Fatalf("classic exposition missing error counter:\n%s", classic)
	}

	// Snapshot exposes the same exemplar for /debug/vars.
	snap := r.Snapshot()
	hist, ok2 := snap[`obs_span_seconds{span="op"}`].(map[string]any)
	if !ok2 {
		t.Fatalf("snapshot missing span histogram: %v", snap)
	}
	exemplars, ok2 := hist["exemplars"].(map[string]*Exemplar)
	if !ok2 || len(exemplars) == 0 {
		t.Fatalf("snapshot missing exemplars: %v", hist)
	}
	found := false
	for _, e := range exemplars {
		if e.TraceID == "trace-err" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exemplars lack trace-err: %v", exemplars)
	}
}

func TestSpanNilSafetyAndDoubleEnd(t *testing.T) {
	var sp *Span
	sp.SetError("ignored")
	if sp.Attr("k", "v") != nil {
		t.Fatal("nil span Attr must return nil")
	}
	child := sp.StartChild("orphan")
	if child == nil || child.parent != "" {
		t.Fatalf("nil-parent StartChild must open a root span, got %+v", child)
	}
	child.End()

	r, tr := newTracedRegistry(8)
	s := r.StartSpan("once")
	s.End()
	s.End()
	if got := tr.next.Load(); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
	if h := r.Histogram(spanSeconds, TimeBuckets, L("span", "once")); h.Count() != 1 {
		t.Fatalf("double End observed %d durations, want 1", h.Count())
	}
}

func TestSpanWithoutRecorderStillObserves(t *testing.T) {
	r := NewRegistry() // no recorder installed
	sp := r.StartSpan("bare")
	sp.Attr("k", "v")
	sp.End()
	if got := r.Histogram(spanSeconds, TimeBuckets, L("span", "bare")).Count(); got != 1 {
		t.Fatalf("histogram count = %d, want 1", got)
	}
	if r.traceRec.Load() != nil {
		t.Fatal("registry unexpectedly has a recorder")
	}
}

// TestMetricsHandlerFormatNegotiation: exemplars are only legal in
// OpenMetrics, so /metrics must emit them solely when the scraper asks
// for application/openmetrics-text; a default (Prometheus 0.0.4)
// scrape must stay exemplar-free and parseable.
func TestMetricsHandlerFormatNegotiation(t *testing.T) {
	r, _ := newTracedRegistry(8)
	r.StartSpanWithID("op", "trace-neg").End()
	handler := r.MetricsHandler()

	rw := httptest.NewRecorder()
	handler.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("default Content-Type = %q", ct)
	}
	body := rw.Body.String()
	if strings.Contains(body, " # {") || strings.Contains(body, "# EOF") {
		t.Fatalf("0.0.4 response carries OpenMetrics constructs:\n%s", body)
	}
	if !strings.Contains(body, `obs_span_seconds_count{span="op"} 1`) {
		t.Fatalf("0.0.4 response missing span histogram:\n%s", body)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rw = httptest.NewRecorder()
	handler.ServeHTTP(rw, req)
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("negotiated Content-Type = %q", ct)
	}
	body = rw.Body.String()
	if !strings.Contains(body, `# {trace_id="trace-neg"}`) {
		t.Fatalf("openmetrics response missing exemplar:\n%s", body)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("openmetrics response missing # EOF:\n%s", body)
	}
}
