package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. Messages below the logger's level are
// dropped before formatting.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel maps "debug", "info", "warn", "error" to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
}

// sink serializes writes so concurrent loggers never interleave lines.
// It is shared between a Logger and every child created by With.
type sink struct {
	mu sync.Mutex
	w  io.Writer
}

// Logger writes leveled key=value lines:
//
//	ts=2017-11-15T10:00:00.000Z level=info msg="request served" route=/evaluate status=200
//
// It is safe for concurrent use; lines are written atomically. The
// sink is swappable (SetOutput), and the clock is a field this
// package's tests pin, so output can be captured deterministically.
type Logger struct {
	s     *sink
	level *atomic.Int32
	base  string           // preformatted fields from With
	now   func() time.Time // nil means time.Now
}

// NewLogger returns a logger writing to w at the given minimum level.
func NewLogger(w io.Writer, level Level) *Logger {
	lv := &atomic.Int32{}
	lv.Store(int32(level))
	return &Logger{s: &sink{w: w}, level: lv}
}

// SetOutput redirects the logger (and every With-derived child sharing
// its sink) to w.
func (l *Logger) SetOutput(w io.Writer) {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	l.s.w = w
}

// Enabled reports whether a message at level would be written.
func (l *Logger) Enabled(level Level) bool { return level >= Level(l.level.Load()) }

// With returns a child logger whose lines always carry the given
// key=value fields. The child shares the parent's sink and level.
func (l *Logger) With(kv ...any) *Logger {
	var sb strings.Builder
	sb.WriteString(l.base)
	appendKV(&sb, kv)
	return &Logger{s: l.s, level: l.level, base: sb.String(), now: l.now}
}

func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }
func (l *Logger) Info(msg string, kv ...any)  { l.log(LevelInfo, msg, kv) }
func (l *Logger) Warn(msg string, kv ...any)  { l.log(LevelWarn, msg, kv) }
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	nowFn := l.now
	if nowFn == nil {
		nowFn = time.Now
	}
	var sb strings.Builder
	sb.WriteString("ts=")
	sb.WriteString(nowFn().UTC().Format("2006-01-02T15:04:05.000Z"))
	sb.WriteString(" level=")
	sb.WriteString(level.String())
	sb.WriteString(" msg=")
	sb.WriteString(formatValue(msg))
	sb.WriteString(l.base)
	appendKV(&sb, kv)
	sb.WriteByte('\n')
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	_, _ = io.WriteString(l.s.w, sb.String())
}

// appendKV writes " k=v" pairs; an odd trailing element is logged
// under the key "!badkey" rather than dropped.
func appendKV(sb *strings.Builder, kv []any) {
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		var val any = "!badkey"
		if i+1 < len(kv) {
			val = kv[i+1]
		} else {
			val, key = key, "!badkey"
		}
		sb.WriteByte(' ')
		sb.WriteString(key)
		sb.WriteByte('=')
		sb.WriteString(formatValue(val))
	}
}

// formatValue renders a field value, quoting strings that would break
// the key=value grammar.
func formatValue(v any) string {
	switch x := v.(type) {
	case string:
		if x == "" || strings.ContainsAny(x, " \t\n\"=") {
			return strconv.Quote(x)
		}
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case error:
		return formatValue(x.Error())
	case fmt.Stringer:
		return formatValue(x.String())
	default:
		return formatValue(fmt.Sprint(v))
	}
}
