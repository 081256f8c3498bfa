package walog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// ScanResult summarizes one segment file's frame scan.
type ScanResult struct {
	// Frames is the number of valid frames found.
	Frames uint64
	// ValidBytes is the offset just past the last valid frame (it
	// includes the magic header; an empty-but-valid segment reports
	// len(Magic)).
	ValidBytes int64
	// TotalBytes is the file's size on disk.
	TotalBytes int64
	// TailReason explains why the scan stopped before TotalBytes
	// (empty when the whole file is valid frames).
	TailReason string
}

// ScanSegment walks a segment file and returns where the valid frame
// prefix ends. It never returns an error for torn or corrupt FRAMES —
// those end the valid prefix and are described by TailReason — only
// for I/O failures or a missing/invalid magic header (which means the
// file is not a walog segment at all, not a torn one).
func ScanSegment(path string, maxFrameBytes int) (ScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScanResult{}, fmt.Errorf("walog: %w", err)
	}
	defer closeQuiet(f)
	fi, err := f.Stat()
	if err != nil {
		return ScanResult{}, fmt.Errorf("walog: %w", err)
	}
	res := ScanResult{TotalBytes: fi.Size()}
	res.ValidBytes, res.TailReason, err = scanSegment(bufio.NewReaderSize(f, 1<<20), path, maxFrameBytes, func([]byte) error {
		res.Frames++
		return nil
	})
	if err != nil {
		return ScanResult{}, err
	}
	return res, nil
}

// readSegmentFrames streams the valid frames of one segment through fn
// (payload slice reused between calls). Torn tails are silently
// skipped — recovery already decided where the valid prefix ends.
func readSegmentFrames(path string, maxFrameBytes int, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("walog: %w", err)
	}
	defer closeQuiet(f)
	_, _, err = scanSegment(bufio.NewReaderSize(f, 1<<20), path, maxFrameBytes, fn)
	return err
}

// scanSegment reads a segment image from r: its magic header, then
// frames until EOF or the first torn or corrupt one, calling fn with
// each valid payload (the slice is reused between calls). It returns
// the length of the valid prefix, magic included, and why the scan
// stopped before EOF ("" when every byte after the magic is a valid
// frame). A missing or bad magic and an I/O failure are errors naming
// the segment; fn's error aborts the scan and is returned as it is.
func scanSegment(r io.Reader, name string, maxFrameBytes int, fn func(payload []byte) error) (valid int64, tailReason string, err error) {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, "", fmt.Errorf("walog: %s: reading magic: %w", name, err)
	}
	if string(magic[:]) != Magic {
		return 0, "", fmt.Errorf("walog: %s: bad magic %q, not a walog segment", name, magic[:])
	}
	valid = int64(len(Magic))
	var hdr [FrameHeaderSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			switch err {
			case io.EOF:
				return valid, "", nil // clean end on a frame boundary
			case io.ErrUnexpectedEOF:
				return valid, "torn frame header", nil
			}
			return valid, "", fmt.Errorf("walog: %s: %w", name, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(length) > int64(maxFrameBytes) {
			// An absurd length is indistinguishable from garbage; do
			// not attempt the read (it could be gigabytes).
			return valid, fmt.Sprintf("frame length %d exceeds limit %d", length, maxFrameBytes), nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return valid, "torn frame payload", nil
			}
			return valid, "", fmt.Errorf("walog: %s: %w", name, err)
		}
		if got := Checksum(payload); got != want {
			return valid, fmt.Sprintf("frame CRC mismatch (stored %08x, computed %08x)", want, got), nil
		}
		if err := fn(payload); err != nil {
			return valid, "", err
		}
		valid += int64(FrameHeaderSize) + int64(length)
	}
}
