// Package walog is a crash-safe append-only segment log: the durable
// substrate under drevald's streaming ingestion. Callers append opaque
// payloads (drevald appends binary-encoded record batches); the log
// writes them as length+CRC32C-framed records into numbered segment
// files, rotates segments at a size threshold, and — after a crash —
// recovers by scanning segments and truncating the torn tail of the
// last one. The segment files are the whole log: they run from
// wal-00000001.seg to wal-N.seg with no gap, and no other file is kept.
//
// Durability contract: when Append returns nil under FsyncAlways, the
// frame is on stable storage and will be recovered by any subsequent
// Open. Under FsyncInterval the frame is durable within one interval;
// under FsyncNever durability is whenever the OS writes back. drevald
// acks ingest batches only after Append returns, so "acked" is exactly
// as strong as the configured policy — the crash-replay chaos suite
// pins the FsyncAlways version of this contract.
//
// Failure semantics: a failed append (injected or real short write,
// fsync error) leaves the log usable — the writer truncates the active
// segment back to the last good frame before returning the error, so
// one torn write cannot poison every subsequent frame. If even that
// self-heal truncation fails the log wedges closed and every later
// Append returns ErrWedged; the caller restarts and recovery applies
// the same truncation offline.
package walog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"sync"
	"time"

	"drnet/internal/resilience"
)

// Segment file layout:
//
//	offset 0:  8-byte magic "DRWAL001"
//	then frames back to back:
//	  uint32 LE payload length
//	  uint32 LE CRC32C (Castagnoli) of the payload
//	  payload bytes
//
// A frame is valid iff its full header and payload are present and the
// CRC matches. Recovery accepts the longest valid frame prefix of the
// final segment and truncates the rest (the torn tail a crash mid-write
// leaves behind); an invalid frame in a SEALED segment is corruption of
// acked data and fails Open instead. A final segment shorter than its
// magic, holding a prefix of it, is a rotation torn inside
// createSegment: it holds no frame, so Open makes it again.
const (
	// Magic identifies a walog segment file (version 001).
	Magic = "DRWAL001"
	// FrameHeaderSize is the per-frame overhead: length + CRC.
	FrameHeaderSize = 8
)

// crcTable is the Castagnoli polynomial table (CRC32C), the checksum
// used by most modern storage formats and accelerated in hardware.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of payload (exported for tests and
// external verifiers).
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// FsyncPolicy selects when the log calls fsync on the active segment.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: ack == durable.
	FsyncAlways FsyncPolicy = iota
	// FsyncIntervalPolicy syncs on a background ticker: an ack is
	// durable within one interval; a crash inside the window can lose
	// the tail of acked frames (the response's durable flag says so).
	FsyncIntervalPolicy
	// FsyncNever leaves write-back entirely to the OS.
	FsyncNever
)

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncIntervalPolicy, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("walog: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a Log.
type Options struct {
	// Dir is the directory holding the segment files. It is created if
	// absent.
	Dir string
	// SegmentBytes rotates the active segment once it would exceed this
	// size (default 64 MiB). Rotation happens on frame boundaries, so a
	// single frame larger than the threshold still fits in one segment.
	SegmentBytes int64
	// MaxFrameBytes bounds a single payload, on write and on recovery
	// (default 32 MiB). Recovery treats a length field above the bound
	// as a torn/corrupt frame rather than attempting a huge read.
	MaxFrameBytes int
	// Fsync selects the durability point (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under
	// FsyncIntervalPolicy (default 100ms).
	FsyncInterval time.Duration
}

func (o *Options) fill() error {
	if o.Dir == "" {
		return errors.New("walog: Options.Dir is required")
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SegmentBytes < int64(len(Magic))+FrameHeaderSize {
		return fmt.Errorf("walog: SegmentBytes %d is below one frame header", o.SegmentBytes)
	}
	if o.MaxFrameBytes == 0 {
		o.MaxFrameBytes = 32 << 20
	}
	if o.MaxFrameBytes < 1 {
		return fmt.Errorf("walog: MaxFrameBytes %d must be >= 1", o.MaxFrameBytes)
	}
	if o.FsyncInterval == 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.FsyncInterval < 0 {
		return fmt.Errorf("walog: FsyncInterval %v must be > 0", o.FsyncInterval)
	}
	return nil
}

// ErrWedged is returned by Append after an unrecoverable write failure
// (the self-heal truncation itself failed): the in-memory writer no
// longer knows the on-disk tail state, so it refuses further appends.
var ErrWedged = errors.New("walog: log wedged after unrecoverable write failure")

// ErrTooLarge is returned by Append for payloads above MaxFrameBytes.
var ErrTooLarge = errors.New("walog: payload exceeds MaxFrameBytes")

// Recovery reports what Open found on disk.
type Recovery struct {
	// Segments is the number of segment files recovered (including the
	// reopened tail).
	Segments int
	// Frames is the total valid frames across all segments.
	Frames uint64
	// TruncatedBytes is the torn tail dropped from the final segment
	// (zero after a clean shutdown).
	TruncatedBytes int64
}

// AppendResult describes one durable append.
type AppendResult struct {
	// Seq is the frame's log-wide sequence number (0-based, dense).
	Seq uint64
	// Segment is the file the frame was written to.
	Segment string
	// Synced reports whether the frame was fsynced before returning
	// (true under FsyncAlways; false means durability is deferred).
	Synced bool
}

// Log is an append-only segment log. All methods are safe for
// concurrent use; appends are serialized internally so frame order is
// total and equals recovery order.
type Log struct {
	opts Options

	mu        sync.Mutex
	f         *os.File // guarded by mu
	segName   string   // guarded by mu
	segBytes  int64    // guarded by mu
	segFrames uint64   // guarded by mu
	// sealed names the rotated segments, wal-00000001.seg onwards; the
	// active one, segName, is always the next index.
	// guarded by mu
	sealed []string
	// seq is the next frame sequence number.
	// guarded by mu
	seq uint64
	// bytes is the total valid bytes across all segments.
	// guarded by mu
	bytes  int64
	wedged bool // guarded by mu
	closed bool // guarded by mu
	// dirty marks frames written since last sync.
	// guarded by mu
	dirty bool

	syncStop chan struct{}
	syncDone chan struct{}
	// lastSyncErr surfaces background-interval sync failures to the
	// next Append, so a silently failing disk cannot keep acking.
	// guarded by mu
	lastSyncErr error

	// scratch is the frame assembly buffer, reused across appends.
	// guarded by mu
	scratch []byte
}

var segmentRe = regexp.MustCompile(`^wal-\d{8}\.seg$`)

func segmentName(index int) string { return fmt.Sprintf("wal-%08d.seg", index) }

// Open recovers the log in opts.Dir (creating it when absent) and
// reopens the final segment for appending. See Recovery for what was
// found. Open truncates a torn tail in the final segment; corruption in
// a sealed segment is an error, because those frames were acked, and so
// is a gap in the segment numbers: nothing deletes a segment, so a
// missing one is lost acked frames.
func Open(opts Options) (*Log, Recovery, error) {
	if err := opts.fill(); err != nil {
		return nil, Recovery{}, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("walog: %w", err)
	}
	names, err := listSegments(opts.Dir)
	if err != nil {
		return nil, Recovery{}, err
	}
	var rec Recovery
	l := &Log{opts: opts}

	for i, name := range names {
		if want := segmentName(i + 1); name != want {
			return nil, Recovery{}, fmt.Errorf("walog: segment %s is missing before %s", want, name)
		}
		path := filepath.Join(opts.Dir, name)
		last := i == len(names)-1
		sc, err := ScanSegment(path, opts.MaxFrameBytes)
		if last && errors.Is(err, errTornHeader) {
			// A rotation stopped inside createSegment: the tail holds
			// no frame, so it is made again below.
			if err := os.Remove(path); err != nil {
				return nil, Recovery{}, fmt.Errorf("walog: removing torn segment %s: %w", name, err)
			}
			rec.TruncatedBytes = sc.TotalBytes
			break
		}
		if err != nil {
			return nil, Recovery{}, err
		}
		if sc.ValidBytes != sc.TotalBytes {
			if !last {
				return nil, Recovery{}, fmt.Errorf("walog: sealed segment %s corrupt at offset %d of %d: %s", name, sc.ValidBytes, sc.TotalBytes, sc.TailReason)
			}
			if err := os.Truncate(path, sc.ValidBytes); err != nil {
				return nil, Recovery{}, fmt.Errorf("walog: truncating torn tail of %s: %w", name, err)
			}
			rec.TruncatedBytes = sc.TotalBytes - sc.ValidBytes
		}
		rec.Frames += sc.Frames
		l.bytes += sc.ValidBytes
		if !last {
			l.sealed = append(l.sealed, name)
		} else {
			l.segName = name
			l.segBytes = sc.ValidBytes
			l.segFrames = sc.Frames
		}
	}
	l.seq = rec.Frames

	if l.segName == "" {
		// A fresh directory or a torn tail: create the segment after
		// the sealed ones.
		l.segName = segmentName(len(l.sealed) + 1)
		f, err := createSegment(filepath.Join(opts.Dir, l.segName))
		if err != nil {
			return nil, Recovery{}, err
		}
		l.f = f
		l.segBytes = int64(len(Magic))
		l.bytes += int64(len(Magic))
	} else {
		f, err := os.OpenFile(filepath.Join(opts.Dir, l.segName), os.O_WRONLY, 0o644)
		if err != nil {
			return nil, Recovery{}, fmt.Errorf("walog: reopening %s: %w", l.segName, err)
		}
		if _, err := f.Seek(l.segBytes, 0); err != nil {
			closeQuiet(f)
			return nil, Recovery{}, fmt.Errorf("walog: seeking %s: %w", l.segName, err)
		}
		l.f = f
	}
	rec.Segments = len(l.sealed) + 1

	if err := syncDir(opts.Dir); err != nil {
		closeQuiet(l.f)
		return nil, Recovery{}, err
	}

	if opts.Fsync == FsyncIntervalPolicy {
		l.syncStop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("walog: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && segmentRe.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func createSegment(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("walog: creating segment: %w", err)
	}
	if _, err := f.Write([]byte(Magic)); err != nil {
		closeQuiet(f)
		return nil, fmt.Errorf("walog: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		closeQuiet(f)
		return nil, fmt.Errorf("walog: syncing segment header: %w", err)
	}
	return f, nil
}

// closeQuiet closes a file whose content no longer matters (error
// paths and read handles); write paths check Close explicitly.
func closeQuiet(f *os.File) {
	//lint:allow fsynchygiene error-path cleanup: the file's content is already reported failed
	_ = f.Close()
}

// syncDir fsyncs the directory so segment create/rename entries are
// themselves durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("walog: opening dir for sync: %w", err)
	}
	err = d.Sync()
	closeQuiet(d)
	if err != nil {
		return fmt.Errorf("walog: syncing dir: %w", err)
	}
	return nil
}

// Append writes one payload as a frame, rotating the segment first if
// needed, and applies the fsync policy before returning. On error the
// active segment is truncated back to its last good frame; the payload
// is NOT durable and must not be acked.
func (l *Log) Append(payload []byte) (AppendResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return AppendResult{}, errors.New("walog: append on closed log")
	}
	if l.wedged {
		return AppendResult{}, ErrWedged
	}
	if len(payload) > l.opts.MaxFrameBytes {
		return AppendResult{}, fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, len(payload), l.opts.MaxFrameBytes)
	}
	if err := l.lastSyncErrLocked(); err != nil {
		return AppendResult{}, err
	}
	if err := resilience.Inject(resilience.PointWALAppend); err != nil {
		return AppendResult{}, fmt.Errorf("walog: append: %w", err)
	}

	frameLen := int64(FrameHeaderSize + len(payload))
	if l.segFrames > 0 && l.segBytes+frameLen > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return AppendResult{}, err
		}
	}

	// Assemble the whole frame in one buffer so the common case is a
	// single write syscall — a crash can still tear it (the page cache
	// flushes in arbitrary units), which is exactly what the CRC and
	// torn-tail truncation are for.
	need := int(frameLen)
	if cap(l.scratch) < need {
		l.scratch = make([]byte, need)
	}
	frame := l.scratch[:need]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], Checksum(payload))
	copy(frame[FrameHeaderSize:], payload)

	if err := resilience.Inject(resilience.PointWALWrite); err != nil {
		// Injected short write: half the frame reaches the file, then
		// the append fails — the torn tail recovery must clean up.
		if _, werr := l.f.Write(frame[:need/2]); werr != nil {
			err = fmt.Errorf("%w (and the partial write failed: %v)", err, werr)
		}
		l.failAppendLocked()
		return AppendResult{}, fmt.Errorf("walog: write: %w", err)
	}
	if _, err := l.f.Write(frame); err != nil {
		l.failAppendLocked()
		return AppendResult{}, fmt.Errorf("walog: write: %w", err)
	}
	synced := false
	if l.opts.Fsync == FsyncAlways {
		if err := l.syncLocked(); err != nil {
			// The frame bytes are intact on disk but their durability is
			// unknown; refuse the ack and roll the file back so the
			// in-memory and on-disk tails agree.
			l.failAppendLocked()
			return AppendResult{}, err
		}
		synced = true
	} else {
		l.dirty = true
	}

	res := AppendResult{Seq: l.seq, Segment: l.segName, Synced: synced}
	l.seq++
	l.segFrames++
	l.segBytes += frameLen
	l.bytes += frameLen
	return res, nil
}

// failAppendLocked rolls the active segment back to the last good
// frame after a failed write. If the rollback fails the log wedges.
func (l *Log) failAppendLocked() {
	if err := l.f.Truncate(l.segBytes); err != nil {
		l.wedged = true
		return
	}
	if _, err := l.f.Seek(l.segBytes, 0); err != nil {
		l.wedged = true
	}
}

func (l *Log) syncLocked() error {
	if err := resilience.Inject(resilience.PointWALSync); err != nil {
		return fmt.Errorf("walog: sync: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("walog: sync: %w", err)
	}
	l.dirty = false
	return nil
}

func (l *Log) lastSyncErrLocked() error {
	if l.lastSyncErr != nil {
		err := l.lastSyncErr
		l.lastSyncErr = nil
		return fmt.Errorf("walog: deferred sync failed (previously acked frames may not be durable): %w", err)
	}
	return nil
}

// syncLoop is the FsyncIntervalPolicy background syncer.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.syncStop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty && !l.wedged {
				if err := l.syncLocked(); err != nil {
					l.lastSyncErr = err
				}
			}
			l.mu.Unlock()
		}
	}
}

// rotateLocked seals the active segment (final sync + close) and opens
// the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("walog: closing sealed segment: %w", err)
	}
	// The active segment is number len(l.sealed)+1; the next follows it.
	name := segmentName(len(l.sealed) + 2)
	f, err := createSegment(filepath.Join(l.opts.Dir, name))
	if err != nil {
		return err
	}
	if err := syncDir(l.opts.Dir); err != nil {
		closeQuiet(f)
		return err
	}
	l.sealed = append(l.sealed, l.segName)
	l.f = f
	l.segName = name
	l.segFrames = 0
	l.segBytes = int64(len(Magic))
	l.bytes += int64(len(Magic))
	return nil
}

// Close syncs and closes the active segment and stops the background
// syncer. The log cannot be reused after Close.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.syncStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	if !l.wedged {
		if err := l.syncLocked(); err != nil {
			firstErr = err
		}
	}
	if err := l.f.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("walog: close: %w", err)
	}
	return firstErr
}

// Seq returns the next frame sequence number (== total frames).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Segments returns how many segment files the log spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Bytes returns the total valid bytes across all segments (headers
// included).
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// ReadAll streams every frame in sequence order through fn. It reads
// from the files the writer already recovered, so it must run before
// concurrent appends begin (drevald replays before serving ingest).
// fn's error aborts the scan and is returned.
func (l *Log) ReadAll(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append(slices.Clone(l.sealed), l.segName)
	max := l.opts.MaxFrameBytes
	dir := l.opts.Dir
	l.mu.Unlock()

	seq := uint64(0)
	for _, name := range segs {
		err := readSegmentFrames(filepath.Join(dir, name), max, func(payload []byte) error {
			err := fn(seq, payload)
			seq++
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
