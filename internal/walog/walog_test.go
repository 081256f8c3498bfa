package walog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, opts Options) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	err := l.ReadAll(func(seq uint64, payload []byte) error {
		if seq != uint64(len(out)) {
			t.Fatalf("seq %d, want %d", seq, len(out))
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		out = append(out, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return out
}

func TestAppendReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, Options{Dir: dir})
	if rec.Frames != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh recovery = %+v", rec)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("payload-%03d", i))
		res, err := l.Append(p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if res.Seq != uint64(i) {
			t.Fatalf("seq %d, want %d", res.Seq, i)
		}
		if !res.Synced {
			t.Fatalf("FsyncAlways append %d not synced", i)
		}
		want = append(want, p)
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("read %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], want[i])
		}
	}
	// A callback's error stops the read and comes back as it is: replay
	// reports its own "frame N: ..." text.
	stop, calls := errors.New("stop"), 0
	if err := l.ReadAll(func(uint64, []byte) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("ReadAll with a failing callback = %v after %d calls, want its error after 1", err, calls)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestEmptyPayloadAndZeroLengthFrames(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	if _, err := l.Append(nil); err != nil {
		t.Fatalf("Append(nil): %v", err)
	}
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	got := collect(t, l)
	if len(got) != 2 || len(got[0]) != 0 || string(got[1]) != "x" {
		t.Fatalf("got %q", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRotationAndManifest(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: each payload forces a rotation after the first.
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(make([]byte, 40)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if s := l.Segments(); s < 5 {
		t.Fatalf("Segments() = %d, want several after rotation", s)
	}
	if got := collect(t, l); len(got) != 10 {
		t.Fatalf("read %d frames, want 10", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m, ok, err := readManifest(dir)
	if err != nil || !ok {
		t.Fatalf("readManifest: ok=%v err=%v", ok, err)
	}
	if len(m.Sealed) != 9 { // 10 segments, last one active
		t.Fatalf("manifest sealed = %d, want 9", len(m.Sealed))
	}

	// Reopen: everything recovers, manifest agrees.
	l2, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	defer l2.Close()
	if rec.Frames != 10 || !rec.ManifestOK || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if got := collect(t, l2); len(got) != 10 {
		t.Fatalf("post-recovery read %d frames, want 10", len(got))
	}
	if l2.Seq() != 10 {
		t.Fatalf("Seq() = %d, want 10", l2.Seq())
	}
}

func TestOversizedFrameStaysInOneSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 64, MaxFrameBytes: 1 << 20})
	big := make([]byte, 500) // larger than SegmentBytes on its own
	if _, err := l.Append(big); err != nil {
		t.Fatalf("Append(big): %v", err)
	}
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatalf("Append(after): %v", err)
	}
	got := collect(t, l)
	if len(got) != 2 || len(got[0]) != 500 || string(got[1]) != "after" {
		t.Fatalf("got %d frames", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestMaxFrameBytes(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, MaxFrameBytes: 16})
	defer l.Close()
	if _, err := l.Append(make([]byte, 17)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Append oversize = %v, want ErrTooLarge", err)
	}
	if _, err := l.Append(make([]byte, 16)); err != nil {
		t.Fatalf("Append at limit: %v", err)
	}
}

// TestTornTailTruncation simulates a crash mid-frame: garbage appended
// past the last fsynced frame must be truncated on recovery with the
// valid prefix intact.
func TestTornTailTruncation(t *testing.T) {
	cases := []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"partial header", func(t *testing.T, path string) {
			appendRaw(t, path, []byte{0x10, 0x00})
		}},
		{"partial payload", func(t *testing.T, path string) {
			var hdr [FrameHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 100)
			binary.LittleEndian.PutUint32(hdr[4:8], 0xDEADBEEF)
			appendRaw(t, path, append(hdr[:], []byte("only-a-little")...))
		}},
		{"corrupt crc", func(t *testing.T, path string) {
			payload := []byte("torn")
			var hdr [FrameHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload)^1)
			appendRaw(t, path, append(hdr[:], payload...))
		}},
		{"oversize length", func(t *testing.T, path string) {
			var hdr [FrameHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 0xFFFFFFF0)
			binary.LittleEndian.PutUint32(hdr[4:8], 0)
			appendRaw(t, path, hdr[:])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, Options{Dir: dir})
			for i := 0; i < 5; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("good-%d", i))); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			seg := filepath.Join(dir, l.segName)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			before, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			tc.tear(t, seg)

			l2, rec := mustOpen(t, Options{Dir: dir})
			defer l2.Close()
			if rec.Frames != 5 {
				t.Fatalf("recovered %d frames, want 5", rec.Frames)
			}
			if rec.TruncatedBytes == 0 {
				t.Fatalf("expected a truncated tail, recovery = %+v", rec)
			}
			after, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != before.Size() {
				t.Fatalf("segment size %d after recovery, want %d (torn tail removed)", after.Size(), before.Size())
			}
			got := collect(t, l2)
			if len(got) != 5 || string(got[4]) != "good-4" {
				t.Fatalf("post-truncation frames = %d", len(got))
			}
			// The log must keep working where the tear was.
			if _, err := l2.Append([]byte("resumed")); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if got := collect(t, l2); len(got) != 6 || string(got[5]) != "resumed" {
				t.Fatalf("resume frames = %d", len(got))
			}
		})
	}
}

func appendRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedSegmentCorruptionFailsOpen: acked data in a rotated segment
// going bad is NOT a torn tail — recovery must refuse to silently drop
// it.
func TestSealedSegmentCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(make([]byte, 40)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("want >=3 segments, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Flip a payload byte in the FIRST (sealed) segment.
	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(Magic)+FrameHeaderSize+3] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, SegmentBytes: 64}); err == nil {
		t.Fatal("Open succeeded on a corrupt sealed segment")
	}
}

func TestManifestMismatchReported(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	for i := 0; i < 6; i++ {
		if _, err := l.Append(make([]byte, 40)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Stale manifest claiming no sealed segments: the scan must win and
	// flag the disagreement.
	if err := writeManifest(dir, nil); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	defer l2.Close()
	if rec.ManifestOK {
		t.Fatal("ManifestOK = true for a stale manifest")
	}
	if rec.Frames != 6 {
		t.Fatalf("recovered %d frames, want 6", rec.Frames)
	}
	// Open rewrites the manifest from the scan.
	m, ok, err := readManifest(dir)
	if err != nil || !ok {
		t.Fatalf("readManifest after repair: ok=%v err=%v", ok, err)
	}
	if !manifestMatches(m, l2.sealed) {
		t.Fatal("manifest not repaired from scan")
	}
}

func TestGarbageManifestIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	if _, err := l.Append([]byte("a")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if rec.Frames != 1 {
		t.Fatalf("recovered %d frames, want 1", rec.Frames)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil {
			t.Fatalf("ParseFsyncPolicy(%q): %v", s, err)
		}
		if p.String() != s {
			t.Fatalf("round-trip %q -> %q", s, p.String())
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted bogus")
	}

	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, Fsync: FsyncNever})
	res, err := l.Append([]byte("x"))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if res.Synced {
		t.Fatal("FsyncNever append reported Synced")
	}
	if err := l.Sync(); err != nil { // explicit sync still works
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 1 << 12, Fsync: FsyncNever})
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := collect(t, l); len(got) != goroutines*per {
		t.Fatalf("read %d frames, want %d", len(got), goroutines*per)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Everything survives a reopen even though we never asked for sync
	// (Close syncs).
	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if rec.Frames != goroutines*per {
		t.Fatalf("recovered %d frames, want %d", rec.Frames, goroutines*per)
	}
}

func TestScanSegmentEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-00000001.seg")
	if err := os.WriteFile(path, []byte("JUNKJUNK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanSegment(path, 1<<20); err == nil {
		t.Fatal("ScanSegment accepted a file with bad magic")
	}
	if err := os.WriteFile(path, []byte(Magic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanSegment(path, 1<<20); err == nil {
		t.Fatal("ScanSegment accepted a short-magic file")
	}
}
