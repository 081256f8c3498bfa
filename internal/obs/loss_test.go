package obs

import (
	"strings"
	"testing"
)

// lossSource is a replaceable cumulative loss count, as a journal that
// a test swaps for a fresh one looks to RegisterLossCounter.
type lossSource struct {
	n uint64
}

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegisterLossCounterSyncsDrops(t *testing.T) {
	r := NewRegistry()
	src := &lossSource{}
	RegisterLossCounter(r, "obs_test_dropped_total", "Lines dropped.", func() uint64 { return src.n })

	// Eager creation: the family must appear at zero before any drop.
	if out := expose(t, r); !strings.Contains(out, "obs_test_dropped_total 0") {
		t.Fatalf("counter not exposed at zero:\n%s", out)
	}

	// The sampler mirrors the source's cumulative count.
	src.n = 5
	if out := expose(t, r); !strings.Contains(out, "obs_test_dropped_total 5") {
		t.Fatalf("counter did not sync to 5:\n%s", out)
	}

	// A fresh source (lower cumulative count) must not decrease or
	// double-count: the counter holds until the new source's count
	// passes the old high-water mark.
	src = &lossSource{n: 2}
	if out := expose(t, r); !strings.Contains(out, "obs_test_dropped_total 5") {
		t.Fatalf("counter moved on source swap:\n%s", out)
	}
	src.n = 9
	if out := expose(t, r); !strings.Contains(out, "obs_test_dropped_total 12") {
		t.Fatalf("counter did not advance by the new source's delta:\n%s", out)
	}
}
