package obs

import (
	"bytes"
	"context"
	"log/slog"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLoggerFormat pins README's access-log line: handling a record
// with a fixed time makes the line fully deterministic.
func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelDebug)
	at := time.Date(2017, 11, 15, 11, 0, 0, 0, time.FixedZone("CET", 3600))
	r := slog.NewRecord(at, slog.LevelInfo, "request", 0)
	r.Add("id", "4f1f2ca9b3e0d871", "method", "POST", "route", "/evaluate", "status", 200, "bytes", 612, "durMs", 18.4)
	if err := l.Handler().Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	r = slog.NewRecord(at.Add(1234567*time.Microsecond), slog.LevelWarn, "request served", 0)
	r.Add("note", "two words", "empty", "", "eq", "a=b")
	if err := l.Handler().Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	want := `ts=2017-11-15T10:00:00.000Z level=info msg=request id=4f1f2ca9b3e0d871 method=POST route=/evaluate status=200 bytes=612 durMs=18.4` + "\n" +
		`ts=2017-11-15T10:00:01.234Z level=warn msg="request served" note="two words" empty="" eq="a=b"` + "\n"
	if buf.String() != want {
		t.Fatalf("lines:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelWarn)
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
	if l.Enabled(context.Background(), slog.LevelInfo) || !l.Enabled(context.Background(), slog.LevelWarn) {
		t.Fatal("Enabled disagrees with the logger's level")
	}
}

func TestLoggerWith(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, slog.LevelInfo).With("reqId", "abc123").Info("step", "phase", "bootstrap")
	if !regexp.MustCompile(`^ts=\S+Z level=info msg=step reqId=abc123 phase=bootstrap\n$`).MatchString(buf.String()) {
		t.Fatalf("With line: %q", buf.String())
	}
}

// TestLoggerOddKV: an odd trailing value is logged, not dropped. The
// spread hides it from go vet, which, like drevallint's obshygiene
// check, keeps odd pairs out of the tree.
func TestLoggerOddKV(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	l.Info("m", []any{"dangling"}...)
	if !strings.Contains(buf.String(), "!BADKEY=dangling") {
		t.Fatalf("odd trailing kv mishandled: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "Error": slog.LevelError,
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
	l := NewLogger(&buf, slog.LevelInfo)
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
	line := regexp.MustCompile(`^ts=\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z level=info msg=tick worker=\d i=\d+$`)
	for _, l := range got {
		if !line.MatchString(l) {
			t.Fatalf("garbled line %q", l)
		}
	}
}
