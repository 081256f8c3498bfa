package traceio

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// scanNumber runs the scanner's number parse on text alone, reporting
// false unless it accepts all of it.
func scanNumber(text string) (float64, bool) {
	s := evalScanner{buf: []byte(text)}
	f, ok := s.number()
	return f, ok && s.off == len(text)
}

// checkNumber requires the scanner's parse of a JSON number to accept
// exactly when strconv.ParseFloat does, with the same bits.
func checkNumber(t *testing.T, text string) {
	t.Helper()
	got, ok := scanNumber(text)
	want, err := strconv.ParseFloat(text, 64)
	if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: parsed %g (%#x, ok %v), strconv.ParseFloat %g (%#x, err %v)",
			text, got, math.Float64bits(got), ok, want, math.Float64bits(want), err)
	}
}

// TestNumberMatchesParseFloat pins the number parse, fast path and
// fallback, to strconv.ParseFloat: the same bits and the same
// accept/reject decision on every spelling the JSON grammar admits.
func TestNumberMatchesParseFloat(t *testing.T) {
	for _, text := range []string{
		"0", "-0", "-0.0", "0e5", "-0e5", "0.0e-30", "1", "-1", "0.5", "0.1", "0.7", "0.15",
		// The exact powers of ten end at 10^22.
		"1e22", "1e23", "1e-22", "1e-23", "-1e22", "5e22", "5e-22", "1.5e22", "0.1e23",
		// The one-operation step's mantissas end at 2^53, the 128-bit
		// step's exponents at ±19.
		"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993",
		"900719925474099.3", "9007199254740993e-1", "9007199254740992e22", "9007199254740993e-22",
		"9007199254740993e19", "9007199254740993e20", "9007199254740993e-19", "9007199254740993e-20",
		"9999999999999999999e19", "9999999999999999999e-19", "1000000000000000000e-19",
		// A division's remainder alone lifts this one off a tie.
		"16295.501081243655e-7",
		// 17 and more significant digits.
		"0.30000000000000004", "0.12345678901234567", "0.1234567890123456789", "1.2345678901234567e-5",
		"1234567890123456789", "12345678901234567890", "123456789012345678901234567890", "99999999999999999999e-20",
		// Halfway between two float64s: only round-half-even gets these.
		"4503599627370496.5", "4503599627370497.5", "18014398509481990", "18014398509481986",
		"-4503599627370496.5", "9007199254740995",
		// Leading fraction zeros.
		"0.001", "0.0000000000000000000001", "0.00000000000000000000001", "0.00000000000000000001234",
		"0.000000000000000000000000000000000000001e30", "0.00001e27",
		// The ends of the range.
		"4.9e-324", "5e-324", "2e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623159e308", "1e308", "1e309", "-1e309", "1e-400",
		// Exponent spellings.
		"1E+2", "1e+00", "1.5e-07", "123.456e-2", "1e0000000000000000000000000005",
		"1e99999999999999999999", "1e-99999999999999999999", "0e99999999999999999999",
	} {
		checkNumber(t, text)
	}
	rng := rand.New(rand.NewSource(1))
	draws := 100000
	if testing.Short() || raceEnabled {
		// The parse runs on one goroutine: the race detector only slows it.
		draws = 10000
	}
	for i := 0; i < draws; i++ {
		f := rng.Float64()
		if i%2 == 0 {
			f = math.Float64frombits(rng.Uint64())
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, format := range []byte{'g', 'e', 'f'} {
			checkNumber(t, strconv.FormatFloat(f, format, -1, 64))
			checkNumber(t, strconv.FormatFloat(f, format, rng.Intn(25), 64))
		}
		// A mantissa about the fast path's bounds, with the decimal point
		// anywhere in it and an exponent about ±22.
		m := strconv.FormatUint(rng.Uint64()>>rng.Intn(64), 10)
		if dot := rng.Intn(len(m) + 1); dot < len(m) && dot > 0 {
			m = m[:dot] + "." + m[dot:]
		}
		checkNumber(t, m+"e"+strconv.Itoa(rng.Intn(61)-30))
		checkNumber(t, midpoint(rng))
	}
}

// midpoint draws the exact decimal halfway between a random float64
// in [2^48, 2^64) and the next one up: 16 to 20 significant digits, so
// the 128-bit step sees ties, and ParseFloat the 20-digit ones.
func midpoint(rng *rand.Rand) string {
	f := math.Ldexp(1+rng.Float64(), 48+rng.Intn(16))
	m, e := math.Frexp(f)
	// f = mant·2^(e-53), and the midpoint is (2·mant+1)·2^(e-54).
	mant := new(big.Int).SetUint64(uint64(math.Ldexp(m, 53)))
	mid := mant.Lsh(mant, 1).Add(mant, big.NewInt(1))
	k := e - 54
	if k >= 0 {
		return mid.Lsh(mid, uint(k)).String()
	}
	// (2·mant+1)/2^-k is (2·mant+1)·5^-k over 10^-k.
	digits := mid.Mul(mid, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(-k)), nil)).String()
	return digits[:len(digits)+k] + "." + digits[len(digits)+k:]
}

// TestNumberExactStepsTakeUpTo19Digits: the spellings request bodies
// carry (propensities, quarter-step features, rewards of up to 19
// significant digits) take an exact step, and the rest fall back. A
// dead exact step would still match ParseFloat's bits, so
// TestNumberMatchesParseFloat alone cannot tell.
func TestNumberExactStepsTakeUpTo19Digits(t *testing.T) {
	for _, c := range []struct {
		text  string
		exact bool
	}{
		{"0.7", true}, {"0.15", true}, {"2.25", true}, {"0", true}, {"-0.5", true}, {"1e22", true},
		{"0.3456789012345678", true}, {"-0.04503599627370495", true},
		{"0.30000000000000004", true}, {"9007199254740993", true}, {"1234567890123456789", true},
		{"9999999999999999999e-19", true}, {"-0.12345678901234567", true},
		{"12345678901234567890", false}, {"9007199254740993e-20", false}, {"9007199254740993e20", false},
		{"1e23", false}, {"4.9e-324", false},
	} {
		s := evalScanner{buf: []byte(c.text)}
		_, d, ok := s.numberText()
		if _, exact := d.float(); !ok || exact != c.exact {
			t.Errorf("%q: scanned %v, exact path %v, want %v", c.text, ok, exact, c.exact)
		}
		checkNumber(t, c.text)
	}
}

// TestNumberGrammar: the parse keeps the strict JSON grammar, so it
// refuses spellings strconv.ParseFloat accepts.
func TestNumberGrammar(t *testing.T) {
	for _, text := range []string{"", "-", "+1", ".5", "1.", "01", "-01", "1e", "1e+", "1.e1", "0x1p-2", "1_000", "Inf", "NaN", "infinity"} {
		if f, ok := scanNumber(text); ok {
			t.Errorf("%q: accepted as %g", text, f)
		}
	}
}
