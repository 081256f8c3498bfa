package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("phase")
	if sp.id == "" || sp.name != "phase" {
		t.Fatalf("span metadata: id=%q name=%q", sp.id, sp.name)
	}
	if d := sp.End(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	h := r.Histogram(spanSeconds, TimeBuckets, L("span", "phase"))
	if h.Count() != 1 {
		t.Fatalf("span histogram count = %d, want 1", h.Count())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `obs_span_seconds_count{span="phase"} 1`) {
		t.Fatalf("span series missing from exposition:\n%s", sb.String())
	}
}

func TestChildSpanInheritsID(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("request")
	child := root.StartChild("bootstrap")
	if child.id != root.id {
		t.Fatalf("child id %q != root id %q", child.id, root.id)
	}
	child.End()
	root.End()
	if got := r.Histogram(spanSeconds, TimeBuckets, L("span", "bootstrap")).Count(); got != 1 {
		t.Fatalf("child histogram count = %d", got)
	}
}

func TestNilSpanEnd(t *testing.T) {
	var sp *Span
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %v", d)
	}
}

func TestNewIDUnique(t *testing.T) {
	const n = 2000
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				ids <- NewID()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if len(id) != 16 {
			t.Fatalf("id %q not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("Version() returned empty string")
	}
	if Version() != Version() {
		t.Fatal("Version() not stable")
	}
}
