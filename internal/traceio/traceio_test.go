package traceio

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"drnet/internal/core"
	"drnet/internal/mathx"
)

func sampleFlat() FlatTrace {
	return FlatTrace{
		FeatureNames: []string{"asn", "rtt"},
		Records: []FlatRecord{
			{Features: []float64{1, 23.5}, Decision: "cdnA", Reward: 0.9, Propensity: 0.5},
			{Features: []float64{2, 17.25}, Decision: "cdnB", Reward: 0.4, Propensity: 0.25},
			{Features: []float64{3, -4}, Decision: "cdnA", Reward: -1.5, Propensity: 1},
		},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ft := sampleFlat()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ft); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(ft.Records) {
		t.Fatalf("got %d records", len(got.Records))
	}
	if got.FeatureNames[0] != "asn" || got.FeatureNames[1] != "rtt" {
		t.Fatalf("feature names %v", got.FeatureNames)
	}
	for i := range ft.Records {
		a, b := ft.Records[i], got.Records[i]
		if a.Decision != b.Decision || a.Reward != b.Reward || a.Propensity != b.Propensity {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Features {
			if a.Features[j] != b.Features[j] {
				t.Fatalf("record %d feature %d mismatch", i, j)
			}
		}
	}
}

func TestCSVDefaultHeaderNames(t *testing.T) {
	ft := sampleFlat()
	ft.FeatureNames = nil
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ft); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "f0,f1,decision") {
		t.Fatalf("header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, FlatTrace{}); err == nil {
		t.Fatal("empty trace should fail")
	}
	ragged := sampleFlat()
	ragged.Records[1].Features = []float64{1}
	if err := WriteCSV(&buf, ragged); err == nil {
		t.Fatal("ragged features should fail")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n")); err == nil {
		t.Fatal("short header should fail")
	}
	if _, err := ReadCSV(strings.NewReader("f0,decision,reward,propensity\n")); err == nil {
		t.Fatal("header-only should fail (no records)")
	}
	if _, err := ReadCSV(strings.NewReader("f0,decision,reward,propensity\nxx,d,1,1\n")); err == nil {
		t.Fatal("bad feature should fail")
	}
	if _, err := ReadCSV(strings.NewReader("f0,decision,reward,propensity\n1,d,xx,1\n")); err == nil {
		t.Fatal("bad reward should fail")
	}
	if _, err := ReadCSV(strings.NewReader("f0,decision,reward,propensity\n1,d,1,xx\n")); err == nil {
		t.Fatal("bad propensity should fail")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	ft := sampleFlat()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ft); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 || got.Records[2].Reward != -1.5 {
		t.Fatalf("round trip lost data: %+v", got.Records)
	}
}

func TestJSONLErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, FlatTrace{}); err == nil {
		t.Fatal("empty trace should fail")
	}
	if _, err := ReadJSONL(strings.NewReader("{bad json")); err == nil {
		t.Fatal("bad json should fail")
	}
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestFlatten(t *testing.T) {
	tr := core.Trace[int, int]{
		{Context: 7, Decision: 2, Reward: 1.5, Propensity: 0.5},
		{Context: -3, Decision: 11, Reward: -0.25, Propensity: 1},
	}
	ft := Flatten(tr, func(c int) []float64 { return []float64{float64(c), float64(2 * c)} },
		func(d int) string { return strconv.Itoa(d) })
	want := []FlatRecord{
		{Features: []float64{7, 14}, Decision: "2", Reward: 1.5, Propensity: 0.5},
		{Features: []float64{-3, -6}, Decision: "11", Reward: -0.25, Propensity: 1},
	}
	if !reflect.DeepEqual(ft.Records, want) {
		t.Fatalf("flatten produced %+v, want %+v", ft.Records, want)
	}
}

func TestToCoreAndKey(t *testing.T) {
	ft := sampleFlat()
	tr := ToCore(ft)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr[0].Decision != "cdnA" {
		t.Fatalf("decision %q", tr[0].Decision)
	}
	k1 := tr[0].Context.Key()
	k2 := FlatContext{Features: []float64{1, 23.5}}.Key()
	if k1 != k2 {
		t.Fatalf("keys differ: %q vs %q", k1, k2)
	}
	if tr[1].Context.Key() == k1 {
		t.Fatal("distinct contexts share a key")
	}
}

// TestBitsKeyGroupsAsKey: two vectors share a bitsKey exactly when they
// share a Key, so a request view keyed by bits has the reference view's
// codes: -0 and 0 differ, nil and empty agree, and so does every
// spelling that parses to the same bits.
func TestBitsKeyGroupsAsKey(t *testing.T) {
	vecs := [][]float64{nil, {}, {0}, {math.Copysign(0, -1)}, {0, 0}, {1, 2}, {2, 1}, {1, 2, 0},
		{0.1}, {math.Nextafter(0.1, 1)}, {math.MaxFloat64}, {-math.MaxFloat64}, {5e-324}, {-5e-324}, {1e22, 1e23}}
	for _, f := range []string{"0.1", "1e-1", "0.10000000000000000555", "1", "1.0", "1e0", "2", "2.0"} {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		vecs = append(vecs, []float64{v}, []float64{v, 2})
	}
	for _, a := range vecs {
		for _, b := range vecs {
			ca, cb := FlatContext{Features: a}, FlatContext{Features: b}
			if (bitsKey(ca) == bitsKey(cb)) != (ca.Key() == cb.Key()) {
				t.Errorf("%v and %v: bitsKey equal %v, Key equal %v", a, b, bitsKey(ca) == bitsKey(cb), ca.Key() == cb.Key())
			}
		}
	}
}

// Property: CSV and JSONL round trips preserve arbitrary traces exactly
// (float64 values are written with full precision).
func TestSerializationRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := mathx.NewRNG(seed)
		n := 1 + rng.Intn(50)
		nf := 1 + rng.Intn(6)
		ft := FlatTrace{}
		for i := 0; i < n; i++ {
			rec := FlatRecord{
				Decision:   string(rune('a' + rng.Intn(26))),
				Reward:     rng.Normal(0, 100),
				Propensity: rng.Float64(),
			}
			for j := 0; j < nf; j++ {
				rec.Features = append(rec.Features, rng.Normal(0, 1e6))
			}
			ft.Records = append(ft.Records, rec)
		}
		var csvBuf, jsonBuf bytes.Buffer
		if err := WriteCSV(&csvBuf, ft); err != nil {
			return false
		}
		if err := WriteJSONL(&jsonBuf, ft); err != nil {
			return false
		}
		fromCSV, err := ReadCSV(&csvBuf)
		if err != nil {
			return false
		}
		fromJSON, err := ReadJSONL(&jsonBuf)
		if err != nil {
			return false
		}
		for _, got := range []FlatTrace{fromCSV, fromJSON} {
			if len(got.Records) != n {
				return false
			}
			for i := range ft.Records {
				a, b := ft.Records[i], got.Records[i]
				if a.Decision != b.Decision || a.Reward != b.Reward || a.Propensity != b.Propensity {
					return false
				}
				for j := range a.Features {
					if a.Features[j] != b.Features[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicyConstant(t *testing.T) {
	tr := core.Trace[FlatContext, string]{
		{Context: FlatContext{Features: []float64{1}}, Decision: "x", Reward: 1, Propensity: 1},
	}
	p, err := ParsePolicy("constant:x", tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Distribution(FlatContext{})[0].Decision; got != "x" {
		t.Fatalf("got %q", got)
	}
	if _, err := ParsePolicy("constant:", tr); err == nil {
		t.Fatal("empty decision should fail")
	}
	if _, err := ParsePolicy("nope", tr); err == nil {
		t.Fatal("unknown spec should fail")
	}
}

// TestParsePolicyBestObservedTiesPure: eight equally rewarded
// decisions in one context must resolve to one decision — the first
// logged — on every call, for the context and for unseen contexts.
func TestParsePolicyBestObservedTiesPure(t *testing.T) {
	ctx := FlatContext{Features: []float64{1}}
	var tr core.Trace[FlatContext, string]
	for _, d := range []string{"h", "c", "a", "f", "b", "g", "e", "d"} {
		tr = append(tr, core.Record[FlatContext, string]{Context: ctx, Decision: d, Reward: 2, Propensity: 0.125})
	}
	p, err := ParsePolicy("best-observed", tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if got := p.Distribution(ctx)[0].Decision; got != "h" {
			t.Fatalf("call %d: best-observed chose %q, want the first logged decision h", i, got)
		}
		if got := p.Distribution(FlatContext{Features: []float64{9}})[0].Decision; got != "h" {
			t.Fatalf("call %d: global fallback chose %q, want h", i, got)
		}
	}
}
