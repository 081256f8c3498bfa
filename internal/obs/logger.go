package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps "debug", "info", "warn" (or "warning") and "error",
// in any case, to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
}

// NewLogger returns a logger writing leveled key=value lines to w,
// dropping messages below level:
//
//	ts=2017-11-15T10:00:00.000Z level=info msg="request served" route=/evaluate status=200
//
// It is log/slog's text handler with the record time under ts, in UTC
// (the handler writes a time to the millisecond), and the level in
// lower case.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
			switch a.Key {
			case slog.TimeKey:
				if a.Value.Kind() == slog.KindTime {
					return slog.Time("ts", a.Value.Time().UTC())
				}
			case slog.LevelKey:
				if l, ok := a.Value.Any().(slog.Level); ok {
					return slog.String(slog.LevelKey, strings.ToLower(l.String()))
				}
			}
			return a
		},
	}))
}
