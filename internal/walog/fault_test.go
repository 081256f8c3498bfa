package walog

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"drnet/internal/resilience"
)

// withPlan activates a fault plan for the test body and guarantees
// deactivation (these tests share the process-wide injection slot, so
// they must not run in parallel with each other).
func withPlan(t *testing.T, p *resilience.FaultPlan) {
	t.Helper()
	resilience.Activate(p)
	t.Cleanup(resilience.Deactivate)
}

// TestFaultAppendCleanFailure: an error at PointWALAppend fails before
// any bytes reach the file — the log stays clean and later appends
// succeed.
func TestFaultAppendCleanFailure(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	defer l.Close()

	withPlan(t, resilience.NewFaultPlan(7).
		Add(resilience.PointWALAppend, resilience.FaultSpec{ErrProb: 0.5}))

	var acked [][]byte
	for i := 0; i < 40; i++ {
		p := []byte(fmt.Sprintf("p-%02d", i))
		if _, err := l.Append(p); err != nil {
			if !errors.Is(err, resilience.ErrInjected) {
				t.Fatalf("Append %d: unexpected error %v", i, err)
			}
			continue
		}
		acked = append(acked, p)
	}
	if len(acked) == 0 || len(acked) == 40 {
		t.Fatalf("plan fired %d/40 — want a mix", 40-len(acked))
	}
	got := collect(t, l)
	if len(got) != len(acked) {
		t.Fatalf("read %d frames, want %d acked", len(got), len(acked))
	}
	for i := range acked {
		if string(got[i]) != string(acked[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], acked[i])
		}
	}
}

// TestFaultShortWriteSelfHeal: PointWALWrite tears a frame mid-write;
// the writer must truncate back so the NEXT append lands on a clean
// boundary and every acked frame survives a reopen.
func TestFaultShortWriteSelfHeal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})

	withPlan(t, resilience.NewFaultPlan(11).
		Add(resilience.PointWALWrite, resilience.FaultSpec{ErrProb: 0.3}))

	var acked [][]byte
	torn := 0
	for i := 0; i < 60; i++ {
		p := []byte(fmt.Sprintf("payload-%02d", i))
		if _, err := l.Append(p); err != nil {
			if !errors.Is(err, resilience.ErrInjected) {
				t.Fatalf("Append %d: unexpected error %v", i, err)
			}
			torn++
			continue
		}
		acked = append(acked, p)
	}
	if torn == 0 {
		t.Fatal("plan never tore a write")
	}
	resilience.Deactivate()

	got := collect(t, l)
	if len(got) != len(acked) {
		t.Fatalf("in-process read %d frames, want %d acked", len(got), len(acked))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the self-healed file must contain exactly the acked set.
	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if rec.Frames != uint64(len(acked)) {
		t.Fatalf("recovered %d frames, want %d", rec.Frames, len(acked))
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("self-heal left a torn tail for recovery: %+v", rec)
	}
	got = collect(t, l2)
	for i := range acked {
		if string(got[i]) != string(acked[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], acked[i])
		}
	}
}

// TestFaultSyncFailure: an injected fsync failure must refuse the ack
// (FsyncAlways) and roll the frame back — a record whose durability is
// unknown is treated as not written.
func TestFaultSyncFailure(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})

	withPlan(t, resilience.NewFaultPlan(23).
		Add(resilience.PointWALSync, resilience.FaultSpec{ErrProb: 0.4}))

	var acked [][]byte
	failed := 0
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("s-%02d", i))
		if _, err := l.Append(p); err != nil {
			if !errors.Is(err, resilience.ErrInjected) {
				t.Fatalf("Append %d: unexpected error %v", i, err)
			}
			failed++
			continue
		}
		acked = append(acked, p)
	}
	if failed == 0 {
		t.Fatal("plan never failed a sync")
	}
	resilience.Deactivate()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if rec.Frames != uint64(len(acked)) {
		t.Fatalf("recovered %d frames, want %d acked", rec.Frames, len(acked))
	}
	got := collect(t, l2)
	for i := range acked {
		if string(got[i]) != string(acked[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], acked[i])
		}
	}
}

// TestDeferredSyncErrorSurfaces: under FsyncIntervalPolicy a failing
// background sync must surface on the next Append instead of letting
// the log ack into a black hole forever, and the syncer keeps running,
// so a later tick syncs cleanly once the fault clears.
func TestDeferredSyncErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: FsyncIntervalPolicy, FsyncInterval: 2 * time.Millisecond})
	defer l.Close()
	// The plan is active before the first Append, so the first sync of
	// "a" is the injected failure: under this policy Append reaches
	// PointWALSync only on rotation, which one small frame never
	// triggers, and a tick that synced "a" cleanly would leave nothing
	// dirty to fail.
	plan := resilience.NewFaultPlan(3).Add(resilience.PointWALSync, resilience.FaultSpec{ErrProb: 1})
	withPlan(t, plan)
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	waitFor(t, "a background sync to fail", func() bool { return plan.Fired(resilience.PointWALSync) > 0 })
	resilience.Deactivate()
	if _, err := l.Append([]byte("b")); !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("Append after a failed background sync: %v, want the deferred injected error", err)
	}
	// The error is consumed; the log keeps working.
	if _, err := l.Append([]byte("c")); err != nil {
		t.Fatalf("Append after surfaced error: %v", err)
	}
	waitFor(t, "a background sync to succeed", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return !l.dirty
	})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	got := collect(t, l2)
	if rec.Frames != 2 || len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "c" {
		t.Fatalf("reopen recovered %d frames %q, want the acked [a c]", rec.Frames, got)
	}
}

// waitFor polls cond every millisecond, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
