package traceio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Binary batch codec: the WAL payload format for streaming ingestion.
// One walog frame carries one ingest batch encoded by EncodeBatch, so
// a batch is durable (and acked) atomically — recovery either replays
// all of a batch's records or none of them.
//
// Layout (all integers unsigned LEB128 varints, all floats IEEE-754
// bits little-endian):
//
//	uvarint batchVersion (currently 1)
//	uvarint record count
//	per record:
//	  uvarint feature count, then that many float64s
//	  uvarint decision byte length, then the UTF-8 bytes
//	  float64 reward
//	  float64 propensity
//
// The decoder is hardened the same way the CSV/JSONL readers are: it
// never panics on arbitrary input, bounds every declared length by the
// bytes actually remaining, and rejects trailing garbage. It does NOT
// validate reward/propensity ranges — that is core's job at view-append
// time, so the validation error text stays byte-identical across the
// file and streaming paths.

// batchVersion guards future codec changes.
const batchVersion = 1

// maxBatchRecords bounds a declared record count far above any real
// batch while keeping a hostile varint from driving a huge allocation.
const maxBatchRecords = 1 << 24

// EncodeBatch appends the binary encoding of records to dst and
// returns the extended slice (pass nil to allocate fresh). It grows
// dst at most once, to the encoding's exact size.
func EncodeBatch(dst []byte, records []FlatRecord) []byte {
	size := uvarintLen(batchVersion) + uvarintLen(uint64(len(records)))
	for i := range records {
		r := &records[i]
		size += uvarintLen(uint64(len(r.Features))) + 8*len(r.Features) +
			uvarintLen(uint64(len(r.Decision))) + len(r.Decision) + 16
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	dst = binary.AppendUvarint(dst, batchVersion)
	dst = binary.AppendUvarint(dst, uint64(len(records)))
	for i := range records {
		r := &records[i]
		dst = binary.AppendUvarint(dst, uint64(len(r.Features)))
		for _, f := range r.Features {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		dst = binary.AppendUvarint(dst, uint64(len(r.Decision)))
		dst = append(dst, r.Decision...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Reward))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Propensity))
	}
	return dst
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeBatch parses one EncodeBatch payload. Any structural problem —
// truncation, a length field larger than the remaining bytes, trailing
// garbage, an unknown version — is an error; the records themselves are
// returned unvalidated.
func DecodeBatch(data []byte) ([]FlatRecord, error) {
	d := batchDecoder{buf: data}
	ver, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != batchVersion {
		return nil, fmt.Errorf("traceio: batch version %d, want %d", ver, batchVersion)
	}
	count, err := d.uvarint("record count")
	if err != nil {
		return nil, err
	}
	if count > maxBatchRecords {
		return nil, fmt.Errorf("traceio: batch declares %d records, above the %d cap", count, maxBatchRecords)
	}
	// Each record needs at least 2 varint bytes + 16 float bytes, so a
	// count that cannot fit in the remaining input is rejected before
	// allocating for it.
	if count > uint64(len(d.buf)-d.off)/18+1 {
		return nil, fmt.Errorf("traceio: batch declares %d records but only %d bytes remain", count, len(d.buf)-d.off)
	}
	records := make([]FlatRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		nf, err := d.uvarint("feature count")
		if err != nil {
			return nil, fmt.Errorf("traceio: record %d: %w", i, err)
		}
		if nf*8 > uint64(len(d.buf)-d.off) {
			return nil, fmt.Errorf("traceio: record %d declares %d features but only %d bytes remain", i, nf, len(d.buf)-d.off)
		}
		var feats []float64
		if nf > 0 {
			feats = make([]float64, nf)
		}
		for j := range feats {
			bits, err := d.u64("feature")
			if err != nil {
				return nil, fmt.Errorf("traceio: record %d: %w", i, err)
			}
			feats[j] = math.Float64frombits(bits)
		}
		dl, err := d.uvarint("decision length")
		if err != nil {
			return nil, fmt.Errorf("traceio: record %d: %w", i, err)
		}
		if dl > uint64(len(d.buf)-d.off) {
			return nil, fmt.Errorf("traceio: record %d declares a %d-byte decision but only %d bytes remain", i, dl, len(d.buf)-d.off)
		}
		dec := string(d.buf[d.off : d.off+int(dl)])
		d.off += int(dl)
		rw, err := d.u64("reward")
		if err != nil {
			return nil, fmt.Errorf("traceio: record %d: %w", i, err)
		}
		pr, err := d.u64("propensity")
		if err != nil {
			return nil, fmt.Errorf("traceio: record %d: %w", i, err)
		}
		records = append(records, FlatRecord{
			Features:   feats,
			Decision:   dec,
			Reward:     math.Float64frombits(rw),
			Propensity: math.Float64frombits(pr),
		})
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("traceio: %d trailing bytes after batch", len(d.buf)-d.off)
	}
	return records, nil
}

// batchDecoder is a bounds-checked cursor over one payload.
type batchDecoder struct {
	buf []byte
	off int
}

func (d *batchDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("traceio: truncated or malformed %s varint", what)
	}
	d.off += n
	return v, nil
}

func (d *batchDecoder) u64(what string) (uint64, error) {
	if len(d.buf)-d.off < 8 {
		return 0, fmt.Errorf("traceio: truncated %s", what)
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}
