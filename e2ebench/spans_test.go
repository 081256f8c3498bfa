package main

import "testing"

// tree numbers spans by their position, which is what Parent refers to.
func tree(rows ...span) []span {
	for i := range rows {
		rows[i].ID = i
	}
	return rows
}

func TestSelfTimeNestedAndBackToBack(t *testing.T) {
	spans := tree(
		span{Name: "op", Parent: -1, StartNs: 0, EndNs: 100},
		span{Name: "a", Parent: 0, StartNs: 10, EndNs: 40},
		span{Name: "a.inner", Parent: 1, StartNs: 20, EndNs: 30},
		span{Name: "b", Parent: 0, StartNs: 40, EndNs: 90}, // starts as a ends
	)
	want := []int64{20, 20, 10, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimeCountsOverlapOnceAndClipsChildren(t *testing.T) {
	spans := tree(
		span{Name: "op", Parent: -1, StartNs: 0, EndNs: 100},
		span{Name: "x", Parent: 0, StartNs: 10, EndNs: 50},
		span{Name: "y", Parent: 0, StartNs: 30, EndNs: 70},  // overlaps x by 20
		span{Name: "z", Parent: 0, StartNs: 90, EndNs: 130}, // runs past the parent
	)
	// Covered: [10,70) and [90,100) = 70, so the root keeps 30.
	if got := selfTimes(spans)[0]; got != 30 {
		t.Fatalf("self(op) = %d, want 30", got)
	}
}

func TestLedgerAggregatesSelfTimeAndAllocations(t *testing.T) {
	spans := tree(
		span{Name: "op", Parent: -1, StartNs: 0, EndNs: 100, Allocs: 50},
		span{Name: "decode", Parent: 0, StartNs: 0, EndNs: 30, Allocs: 20},
		span{Name: "observe", Parent: 0, StartNs: 30, EndNs: 35, Allocs: 1},
		span{Name: "decode", Parent: 0, StartNs: 35, EndNs: 60, Allocs: 9},
	)
	stats, opNs := ledger(spans)
	if opNs != 100 {
		t.Errorf("operation time %d, want 100", opNs)
	}
	d := stats["decode"]
	if d.Calls != 2 || d.SelfNs != 55 || d.Allocs != 29 {
		t.Errorf("decode = %+v, want 2 calls, 55ns, 29 allocs", *d)
	}
	if op := stats["op"]; op.SelfNs != 40 || op.Allocs != 20 {
		t.Errorf("op = %+v, want 40ns and 20 allocs of its own", *op)
	}
}

func TestRecorderLinksSpansToTheOpenParent(t *testing.T) {
	r := newRecorder()
	op := r.beginOp(7)
	_ = r.layer("a", func() error {
		return r.layer("b", func() error { return nil })
	})
	_ = r.layer("c", func() error { return nil })
	r.end(op)
	want := []struct {
		name   string
		parent int
	}{{"op", -1}, {"a", 0}, {"b", 1}, {"c", 0}}
	if len(r.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(r.spans), len(want))
	}
	for i, w := range want {
		s := r.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Op != 7 || s.EndNs < s.StartNs {
			t.Errorf("span %d = %+v, want %s under %d in op 7", i, s, w.name, w.parent)
		}
	}
}

func TestUntracedRecorderAllocatesNothing(t *testing.T) {
	var r *recorder
	noop := func() error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		op := r.beginOp(1)
		_ = r.layer("decode", noop)
		r.end(r.begin("observe"))
		r.end(op)
	})
	if allocs != 0 {
		t.Fatalf("untraced spans allocate %v objects per operation, want 0", allocs)
	}
}
