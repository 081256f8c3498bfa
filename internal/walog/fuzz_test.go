package walog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// frame builds one well-formed frame for seeding.
func frame(payload []byte) []byte {
	out := make([]byte, FrameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], Checksum(payload))
	copy(out[FrameHeaderSize:], payload)
	return out
}

func seg(frames ...[]byte) []byte {
	out := []byte(Magic)
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// readSegment decodes a segment image through scanSegment, the scan
// recovery and replay run, returning copies of its payloads and the
// length of its valid prefix.
func readSegment(data []byte, maxFrameBytes int) (payloads [][]byte, valid int64, err error) {
	valid, _, err = scanSegment(bytes.NewReader(data), "fuzz", maxFrameBytes, func(payload []byte) error {
		payloads = append(payloads, bytes.Clone(payload))
		return nil
	})
	return payloads, valid, err
}

// FuzzReadSegment drives the segment decoder with arbitrary bytes.
// Invariants under ANY input:
//   - never panics
//   - the reported valid prefix is a fixed point: re-decoding it yields
//     the same payloads and consumes all of it
//   - every returned payload round-trips its own CRC framing
//   - inputs with a valid magic never error (torn/corrupt frames just
//     end the prefix)
//   - exactly the inputs shorter than the magic and a prefix of it are
//     a torn header
func FuzzReadSegment(f *testing.F) {
	const maxFrame = 1 << 16

	// Seed corpus: the interesting shapes by construction.
	f.Add([]byte(Magic))                            // empty segment
	f.Add(seg(frame([]byte("hello"))))              // one clean frame
	f.Add(seg(frame(nil), frame([]byte("second")))) // empty payload then data

	torn := seg(frame([]byte("keep")))
	f.Add(append(torn, 0x10, 0x00)) // torn header after a good frame

	partial := seg(frame([]byte("keep")))
	partial = append(partial, frame([]byte("this-payload-gets-cut"))[:FrameHeaderSize+5]...)
	f.Add(partial) // torn payload

	badCRC := frame([]byte("tampered"))
	badCRC[4] ^= 0xFF
	f.Add(seg(frame([]byte("keep")), badCRC)) // corrupt CRC ends prefix

	overLen := make([]byte, FrameHeaderSize)
	binary.LittleEndian.PutUint32(overLen[0:4], 0xFFFFFFF0)
	f.Add(seg(frame([]byte("keep")), overLen)) // absurd length field

	f.Add([]byte("DRWAL002")) // wrong magic version
	f.Add([]byte("DRW"))      // shorter than magic

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, valid, err := readSegment(data, maxFrame)
		if torn := len(data) < len(Magic) && string(data) == Magic[:len(data)]; errors.Is(err, errTornHeader) != torn {
			t.Fatalf("torn header %v, got error %v", torn, err)
		}
		if err != nil {
			// Only a bad/short magic may error; with a valid magic the
			// decoder must degrade to a shorter prefix instead.
			if len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic {
				t.Fatalf("valid-magic input errored: %v", err)
			}
			return
		}
		if valid < int64(len(Magic)) || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [%d, %d]", valid, len(Magic), len(data))
		}
		// Longest-valid-prefix property: every payload's frame must be
		// inside the prefix, and re-decoding the prefix is a fixed
		// point.
		again, validAgain, err := readSegment(data[:valid], maxFrame)
		if err != nil {
			t.Fatalf("re-decoding the valid prefix errored: %v", err)
		}
		if validAgain != valid {
			t.Fatalf("prefix not a fixed point: %d then %d", valid, validAgain)
		}
		if len(again) != len(payloads) {
			t.Fatalf("prefix re-decode found %d frames, want %d", len(again), len(payloads))
		}
		total := int64(len(Magic))
		for i, p := range payloads {
			if !bytes.Equal(p, again[i]) {
				t.Fatalf("frame %d differs on re-decode", i)
			}
			total += int64(FrameHeaderSize + len(p))
		}
		if total != valid {
			t.Fatalf("frame sizes sum to %d, valid prefix is %d", total, valid)
		}
		// And the prefix really is maximal: if any bytes remain, they
		// must NOT start a valid frame.
		rest := data[valid:]
		if len(rest) >= FrameHeaderSize {
			length := binary.LittleEndian.Uint32(rest[0:4])
			want := binary.LittleEndian.Uint32(rest[4:8])
			if int(length) <= maxFrame && len(rest) >= FrameHeaderSize+int(length) {
				if Checksum(rest[FrameHeaderSize:FrameHeaderSize+int(length)]) == want {
					t.Fatalf("prefix %d not maximal: a valid frame follows", valid)
				}
			}
		}
	})
}
