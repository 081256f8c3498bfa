package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock pins timestamps so log lines are fully deterministic.
func fixedClock() time.Time {
	return time.Date(2017, 11, 15, 10, 0, 0, 0, time.UTC)
}

func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.now = fixedClock
	l.Info("request served", "route", "/evaluate", "status", 200, "durMs", 12.5, "note", "two words")
	want := `ts=2017-11-15T10:00:00.000Z level=info msg="request served" route=/evaluate status=200 durMs=12.5 note="two words"` + "\n"
	if buf.String() != want {
		t.Fatalf("line:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	out := buf.String()
	if strings.Contains(out, "level=debug") || strings.Contains(out, "level=info") {
		t.Fatalf("below-level lines written:\n%s", out)
	}
	if !strings.Contains(out, "level=warn") || !strings.Contains(out, "level=error") {
		t.Fatalf("missing warn/error lines:\n%s", out)
	}
	l.level.Store(int32(LevelDebug))
	l.Debug("now visible")
	if !strings.Contains(buf.String(), "now visible") {
		t.Fatal("a lowered level did not take effect")
	}
}

func TestLoggerWith(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.now = fixedClock
	child := l.With("reqId", "abc123")
	child.Info("step", "phase", "bootstrap")
	if !strings.Contains(buf.String(), "reqId=abc123 phase=bootstrap") {
		t.Fatalf("With fields missing: %q", buf.String())
	}
	// Child shares the sink: SetOutput on the parent redirects both.
	var buf2 bytes.Buffer
	l.SetOutput(&buf2)
	child.Info("after redirect")
	if !strings.Contains(buf2.String(), "after redirect") {
		t.Fatal("child did not follow parent's SetOutput")
	}
}

func TestLoggerOddKV(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Info("m", "dangling")
	if !strings.Contains(buf.String(), "!badkey=dangling") {
		t.Fatalf("odd trailing kv mishandled: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "Error": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("expected error for unknown level")
	}
}

// TestLoggerConcurrent checks lines never interleave: every line in
// the output must be exactly one complete record.
func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.now = fixedClock
	const workers, lines = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				l.Info("tick", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	got := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(got) != workers*lines {
		t.Fatalf("%d lines, want %d", len(got), workers*lines)
	}
	for _, line := range got {
		if !strings.HasPrefix(line, "ts=2017-11-15T10:00:00.000Z level=info msg=tick worker=") {
			t.Fatalf("garbled line %q", line)
		}
	}
}
