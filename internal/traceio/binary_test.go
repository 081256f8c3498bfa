package traceio

import (
	"math"
	"reflect"
	"testing"
)

func sampleBatch() []FlatRecord {
	return []FlatRecord{
		{Features: []float64{1, 2.5}, Decision: "a", Reward: 0.5, Propensity: 0.6},
		{Decision: "", Reward: -1.25, Propensity: 1},
		{Features: []float64{math.Pi, math.Copysign(0, -1), 1e-300}, Decision: "décision-ütf8", Reward: 0, Propensity: 0.001},
	}
}

func TestBatchRoundtrip(t *testing.T) {
	in := sampleBatch()
	enc := EncodeBatch(nil, in)
	out, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		// Bit-level float comparison: -0.0 and exact denormals must
		// survive the trip (the WAL replay path depends on it).
		if in[i].Decision != out[i].Decision ||
			math.Float64bits(in[i].Reward) != math.Float64bits(out[i].Reward) ||
			math.Float64bits(in[i].Propensity) != math.Float64bits(out[i].Propensity) {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
		if len(in[i].Features) != len(out[i].Features) {
			t.Fatalf("record %d: feature count %d, want %d", i, len(out[i].Features), len(in[i].Features))
		}
		for j := range in[i].Features {
			if math.Float64bits(in[i].Features[j]) != math.Float64bits(out[i].Features[j]) {
				t.Fatalf("record %d feature %d differs", i, j)
			}
		}
	}
}

func TestBatchRoundtripEmpty(t *testing.T) {
	enc := EncodeBatch(nil, nil)
	out, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("decoded %d records from an empty batch", len(out))
	}
}

func TestBatchAppendsToDst(t *testing.T) {
	prefix := []byte("prefix")
	enc := EncodeBatch(prefix, sampleBatch())
	if string(enc[:6]) != "prefix" {
		t.Fatal("EncodeBatch did not append to dst")
	}
	if _, err := DecodeBatch(enc[6:]); err != nil {
		t.Fatalf("DecodeBatch after prefix: %v", err)
	}
}

// TestEncodeBatchGrowsOnce: EncodeBatch sizes its output exactly, so
// encoding into nil allocates once, a long batch with varints of
// several bytes included, and fills what it asked for.
func TestEncodeBatchGrowsOnce(t *testing.T) {
	long := make([]FlatRecord, 300)
	for i := range long {
		long[i] = FlatRecord{Features: make([]float64, i%130), Decision: string(make([]byte, i)), Propensity: 1}
	}
	for _, in := range [][]FlatRecord{nil, sampleBatch(), long} {
		if allocs := testing.AllocsPerRun(10, func() { _ = EncodeBatch(nil, in) }); allocs != 1 {
			t.Fatalf("%d records: EncodeBatch allocates %.0f times, want 1", len(in), allocs)
		}
		enc := EncodeBatch(make([]byte, 0, 1), in)
		if out, err := DecodeBatch(enc); err != nil || len(out) != len(in) {
			t.Fatalf("%d records: round trip gave %d records, %v", len(in), len(out), err)
		}
	}
}

func TestBatchNaNSurvivesEncoding(t *testing.T) {
	// The codec is transport, not validation: NaN must round-trip so
	// the view-append layer is the single place that rejects it.
	in := []FlatRecord{{Decision: "a", Reward: math.NaN(), Propensity: 0.5}}
	out, err := DecodeBatch(EncodeBatch(nil, in))
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if !math.IsNaN(out[0].Reward) {
		t.Fatal("NaN reward did not survive the codec")
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	good := EncodeBatch(nil, sampleBatch())
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad version", []byte{0x7F}},
		{"truncated count", []byte{0x01}},
		{"huge count", []byte{0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}},
		{"count without bytes", []byte{0x01, 0x40}},
		{"truncated mid-record", good[:len(good)-5]},
		{"truncated mid-features", good[:4]},
		{"trailing garbage", append(append([]byte{}, good...), 0xAB)},
		{"oversize decision length", []byte{0x01, 0x01, 0x00, 0xFF, 0x7F}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeBatch(tc.data); err == nil {
				t.Fatalf("DecodeBatch accepted %q", tc.data)
			}
		})
	}
}

// TestDecodeMatchesToCore ties the codec to the existing pipeline: a
// decoded batch fed through ToCore must equal the original records fed
// through ToCore.
func TestDecodeMatchesToCore(t *testing.T) {
	in := sampleBatch()
	out, err := DecodeBatch(EncodeBatch(nil, in))
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	want := ToCore(FlatTrace{Records: in})
	got := ToCore(FlatTrace{Records: out})
	if !reflect.DeepEqual(want, got) {
		t.Fatal("ToCore differs across the codec round-trip")
	}
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch(nil, sampleBatch()))
	f.Add(EncodeBatch(nil, nil))
	f.Add([]byte{0x01, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// Accepted input must survive an encode/decode round trip with
		// every bit intact (byte equality is too strong: Uvarint accepts
		// non-minimal varints that re-encode shorter).
		again, err := DecodeBatch(EncodeBatch(nil, records))
		if err != nil {
			t.Fatalf("re-decoding a decoded batch errored: %v", err)
		}
		if len(again) != len(records) {
			t.Fatalf("round trip changed record count: %d -> %d", len(records), len(again))
		}
		for i := range records {
			a, b := records[i], again[i]
			if a.Decision != b.Decision ||
				math.Float64bits(a.Reward) != math.Float64bits(b.Reward) ||
				math.Float64bits(a.Propensity) != math.Float64bits(b.Propensity) ||
				len(a.Features) != len(b.Features) {
				t.Fatalf("round trip changed record %d", i)
			}
			for j := range a.Features {
				if math.Float64bits(a.Features[j]) != math.Float64bits(b.Features[j]) {
					t.Fatalf("round trip changed record %d feature %d", i, j)
				}
			}
		}
	})
}
