package traceio

import (
	"bytes"
	"math"
	"math/bits"
	"strconv"

	"drnet/internal/core"
)

// EvalRequest is the body of drevald's /evaluate and /diagnose.
type EvalRequest struct {
	Trace   []FlatRecord `json:"trace"`
	Policy  string       `json:"policy"`
	Options EvalOptions  `json:"options"`
}

// EvalOptions is the request's "options" object.
type EvalOptions struct {
	Clip                 float64 `json:"clip"`
	SelfNormalize        bool    `json:"selfNormalize"`
	EstimatePropensities bool    `json:"estimatePropensities"`
	Bootstrap            int     `json:"bootstrap"`
	Seed                 int64   `json:"seed"`
	// RefreshModel (streamed evaluation only) re-registers the policy
	// fingerprint: the reward model is refit at the current epoch, so
	// the response's staleness resets to zero.
	RefreshModel bool `json:"refreshModel"`
}

// DecodeEvalView decodes an EvalRequest body in one pass into a view
// keyed by bitsKey, which groups contexts exactly as FlatContext.Key
// does. The returned request carries the policy and options; its Trace
// is nil, because the view holds the records.
//
// It is the fast path of a body the caller would otherwise hand to
// encoding/json (DisallowUnknownFields, then Trace.Validate and
// NewTraceViewKeyed): the reference path. It accepts only the
// canonical shape: exact-case known keys, each at most once;
// escape-free ASCII strings; strict JSON numbers within float64 range;
// no null; a non-empty trace of valid records; nothing but whitespace
// after the object. For any other body it reports false and never an
// error, so the caller runs the reference path on the same bytes and
// accept/reject decisions and error texts stay the reference path's.
// When it accepts, the view equals the reference path's in every
// column and dictionary.
//
// A record costs one map lookup on its raw feature text, to the body's
// slot for that context, one on its decision label, and a parse of its
// reward and of its propensity; its features are parsed only at their
// text's first sighting. It is staged into the columns of a core.Run,
// which a fresh builder adopts in one AppendRun. So allocations grow
// with distinct contexts and labels, not with records.
func DecodeEvalView(body []byte) (*EvalRequest, *core.TraceView[FlatContext, string], bool) {
	s := newEvalScanner(body, nil)
	var req EvalRequest
	if !s.request(&req) || len(s.run.Rewards) == 0 {
		return nil, nil, false
	}
	vb := core.NewViewBuilderKeyed[FlatContext, string](bitsKey)
	if vb.AppendRun(&s.run) != nil {
		return nil, nil, false
	}
	return &req, vb.Snapshot(), true
}

// evalScanner is a cursor over one body. Every method returns false
// on anything outside the canonical shape, leaving the body to the
// reference path.
type evalScanner struct {
	buf []byte
	off int
	// known, on an ingest scan, is the stream's builder: feature text
	// that is one of its keys takes that context's code (knownContext).
	known *core.ViewBuilder[FlatContext, string]
	// run stages the records scanned so far.
	run core.Run[FlatContext, string]
	// contexts memoises parsed raw feature-array text to its slot in
	// run.Contexts ("" for a record without features), and labels raw
	// decision bytes to their slot in run.Decisions.
	contexts map[string]int32
	labels   map[string]int32
}

func newEvalScanner(body []byte, known *core.ViewBuilder[FlatContext, string]) evalScanner {
	return evalScanner{
		buf:      body,
		known:    known,
		contexts: make(map[string]int32),
		labels:   make(map[string]int32),
	}
}

// Field bits, for rejecting a key seen twice in one object.
const (
	seenTrace = 1 << iota
	seenPolicy
	seenOptions
)

func (s *evalScanner) request(req *EvalRequest) bool {
	var seen uint
	return s.document(func(key []byte) bool {
		switch string(key) {
		case "trace":
			return once(&seen, seenTrace) && s.records()
		case "policy":
			raw, ok := s.str()
			req.Policy = string(raw)
			return ok && once(&seen, seenPolicy)
		case "options":
			return once(&seen, seenOptions) && s.options(&req.Options)
		}
		return false
	})
}

// document scans the body as one object, each member's value scanned
// by member (false rejects the body), with nothing but whitespace
// around it.
func (s *evalScanner) document(member func(key []byte) bool) bool {
	s.ws()
	if !s.byte('{') {
		return false
	}
	for first := true; ; first = false {
		more, ok := s.next('}', first)
		if !more {
			s.ws()
			return ok && s.off == len(s.buf)
		}
		key, ok := s.key()
		if !ok || !member(key) {
			return false
		}
	}
}

// once marks bit in seen, reporting false when it was already set.
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// next moves to the next member of an object, or element of an array,
// whose opening bracket the scanner has consumed: past the bracket when
// first, else past the previous value and its comma. It reports
// more=false once it consumes the closing bracket, and ok=false on
// anything else.
func (s *evalScanner) next(closing byte, first bool) (more, ok bool) {
	s.ws()
	if s.byte(closing) {
		return false, true
	}
	if !first {
		if !s.byte(',') {
			return false, false
		}
		s.ws()
	}
	return true, true
}

// key scans a member's key and colon, leaving the cursor at its value.
func (s *evalScanner) key() ([]byte, bool) {
	key, ok := s.str()
	s.ws()
	if !ok || !s.byte(':') {
		return nil, false
	}
	s.ws()
	return key, true
}

// records scans a record array into s.run. The run's columns are
// sized once, for at most one record per '{' left in the body and one
// per 16 bytes, the length of the shortest valid record
// ({"propensity":1}); past that they grow as any slice does.
func (s *evalScanner) records() bool {
	if !s.byte('[') {
		return false
	}
	rest := s.buf[s.off:]
	n := min(bytes.Count(rest, []byte{'{'}), len(rest)/16+1)
	r := &s.run
	r.Rewards, r.Propensities = make([]float64, 0, n), make([]float64, 0, n)
	r.CtxSlots, r.DecSlots = make([]int32, 0, n), make([]int32, 0, n)
	for first := true; ; first = false {
		if more, ok := s.next(']', first); !more {
			return ok
		}
		if !s.record() {
			return false
		}
	}
}

// Record field bits.
const (
	seenFeatures = 1 << iota
	seenDecision
	seenReward
	seenPropensity
)

// record scans one record and stages it in s.run. A field the record
// omits keeps its zero value, as under encoding/json.
//
//lint:hot perrecord
func (s *evalScanner) record() bool {
	var seen uint
	var reward, propensity float64
	var ctx, dec int32
	if !s.byte('{') {
		return false
	}
	for first := true; ; first = false {
		more, ok := s.next('}', first)
		if !more {
			if !ok {
				return false
			}
			break
		}
		key, ok := s.key()
		if !ok {
			return false
		}
		switch string(key) {
		case "features":
			ctx, ok = s.features()
			ok = ok && once(&seen, seenFeatures)
		case "decision":
			dec, ok = s.label()
			ok = ok && once(&seen, seenDecision)
		case "reward":
			reward, ok = s.number()
			ok = ok && once(&seen, seenReward)
		case "propensity":
			propensity, ok = s.number()
			ok = ok && once(&seen, seenPropensity)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
	if seen&seenFeatures == 0 {
		ctx = s.noFeatures()
	}
	if seen&seenDecision == 0 {
		dec = s.labelSlot(nil)
	}
	r := &s.run
	//lint:allow hotalloc into the capacity records sized for the body
	r.Rewards = append(r.Rewards, reward)
	//lint:allow hotalloc into the capacity records sized for the body
	r.Propensities = append(r.Propensities, propensity)
	//lint:allow hotalloc into the capacity records sized for the body
	r.CtxSlots = append(r.CtxSlots, ctx)
	//lint:allow hotalloc into the capacity records sized for the body
	r.DecSlots = append(r.DecSlots, dec)
	return true
}

// features scans a feature array, returning its context's slot. Text
// seen before is a memo hit: the first sighting validated it, so only
// its end is found. On an ingest scan, text that is already one of the
// builder's keys takes a slot of its own carrying that context's code
// and vector (knownContext): it is not memoised, which would copy the
// text, as the builder's index resolves it without allocating. Other
// text is parsed into a slot the builder interns.
func (s *evalScanner) features() (int32, bool) {
	if s.off >= len(s.buf) || s.buf[s.off] != '[' {
		return 0, false
	}
	n := bytes.IndexByte(s.buf[s.off:], ']')
	if n < 0 {
		return 0, false
	}
	raw := s.buf[s.off : s.off+n+1]
	if slot, ok := s.contexts[string(raw)]; ok {
		s.off += len(raw)
		return slot, true
	}
	if s.known != nil {
		if code, ctx, ok := knownContext(s.known, raw); ok {
			s.off += len(raw)
			return s.slot(ctx, code), true
		}
	}
	s.off++ // '['
	size := 1
	for _, c := range raw {
		if c == ',' {
			size++
		}
	}
	//lint:allow hotalloc once per distinct feature text, kept as the context's vector
	feats := make([]float64, 0, size)
	for first := true; ; first = false {
		more, ok := s.next(']', first)
		if !more {
			if !ok {
				return 0, false
			}
			break
		}
		f, ok := s.number()
		if !ok {
			return 0, false
		}
		//lint:allow hotalloc into the capacity counted above
		feats = append(feats, f)
	}
	return s.newContext(raw, FlatContext{Features: feats}), true
}

// noFeatures returns the slot of a record that omits its features: a
// nil vector, which the builder keys like an empty one.
func (s *evalScanner) noFeatures() int32 {
	if slot, ok := s.contexts[""]; ok {
		return slot
	}
	return s.newContext(nil, FlatContext{})
}

// newContext adds a slot for ctx that the builder interns, memoised
// under its raw text: once per distinct feature text.
func (s *evalScanner) newContext(raw []byte, ctx FlatContext) int32 {
	slot := s.slot(ctx, -1)
	s.contexts[string(raw)] = slot
	return slot
}

// slot adds a context slot for ctx carrying code: the builder's code
// for a known context, or -1 for AppendRun to intern.
func (s *evalScanner) slot(ctx FlatContext, code int32) int32 {
	slot := int32(len(s.run.Contexts))
	//lint:allow hotalloc once per distinct feature text, or per record of a known context
	s.run.Contexts = append(s.run.Contexts, core.RunContext[FlatContext]{Context: ctx, Code: code})
	return slot
}

// label scans a decision string, returning its slot.
func (s *evalScanner) label() (int32, bool) {
	raw, ok := s.str()
	if !ok {
		return 0, false
	}
	return s.labelSlot(raw), true
}

// labelSlot returns the decision slot of raw label bytes, adding one
// string per distinct label.
func (s *evalScanner) labelSlot(raw []byte) int32 {
	if slot, ok := s.labels[string(raw)]; ok {
		return slot
	}
	l := string(raw)
	slot := int32(len(s.run.Decisions))
	//lint:allow hotalloc once per distinct label
	s.run.Decisions = append(s.run.Decisions, l)
	s.labels[l] = slot
	return slot
}

// str scans a string of printable ASCII without escapes, returning
// its bytes without the quotes.
func (s *evalScanner) str() ([]byte, bool) {
	if !s.byte('"') {
		return nil, false
	}
	start := s.off
	for ; s.off < len(s.buf); s.off++ {
		switch c := s.buf[s.off]; {
		case c == '"':
			s.off++
			return s.buf[start : s.off-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number scans a strict JSON number into the float64 that
// strconv.ParseFloat, and so encoding/json, gives its text; out-of-range
// values fail. A decimal of at most 19 digits with a moderate exponent
// takes an exact step (decimal.float), and any other text goes to
// ParseFloat.
func (s *evalScanner) number() (float64, bool) {
	raw, d, ok := s.numberText()
	if !ok {
		return 0, false
	}
	if f, ok := d.float(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	return f, err == nil
}

// integer scans a strict JSON number into an int64, as encoding/json
// does for an integer field: fractions and exponents fail.
func (s *evalScanner) integer() (int64, bool) {
	raw, _, ok := s.numberText()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	return v, err == nil
}

// decimal is a number's value, ±m·10^exp, read as its text is scanned.
// m holds every digit but a lone leading integer 0, nd of them, so it
// is exact while nd ≤ 19.
type decimal struct {
	m   uint64
	nd  int
	exp int
	neg bool
}

// pow10 holds the powers of ten a float64 represents exactly, and
// pow10u those a uint64 does.
var (
	pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow10u = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// float returns d's value, rounded correctly as strconv.ParseFloat
// rounds it, when one of two exact steps gives it; any other d reports
// false. A mantissa below 2^53 converts to float64 exactly, and so does
// every power of ten up to 10^22, so within exponents of ±22 the value
// is one IEEE multiply or divide, rounded once to nearest even
// (ParseFloat's own atof64exact); the conversions keep the compiler
// from fusing it with the caller's arithmetic. A mantissa of 2^53 or
// more, up to 19 digits, within exponents of ±19 takes wide.
func (d decimal) float() (float64, bool) {
	var f float64
	switch {
	case d.nd > 19:
		return 0, false
	case d.m < 1<<53 && d.exp >= -22 && d.exp <= 22:
		f = float64(d.m)
		if d.exp < 0 {
			f = float64(f / pow10[-d.exp])
		} else {
			f = float64(f * pow10[d.exp])
		}
	case d.m >= 1<<53 && d.exp >= -19 && d.exp <= 19:
		f = d.wide()
	default:
		return 0, false
	}
	if d.neg {
		f = -f
	}
	return f, true
}

// wide is float's 128-bit step, for m ≥ 2^53 and an exponent within
// ±19: m·10^exp exactly, or the quotient of m·2^64 by 10^-exp, which
// is at least 54 bits wide, times 2^-64 with the remainder as a sticky
// bit, rounded once to 53 bits, nearest even. Every such value is a
// normal float64, so scaling by a power of two is exact.
func (d decimal) wide() float64 {
	// The value is hi:lo·2^scale, plus less than 2^scale when sticky.
	var hi, lo uint64
	var sticky bool
	scale := 0
	if d.exp >= 0 {
		hi, lo = bits.Mul64(d.m, pow10u[d.exp])
	} else {
		p := pow10u[-d.exp]
		q, r := bits.Div64(0, d.m, p)
		lo, r = bits.Div64(r, 0, p)
		hi, sticky, scale = q, r != 0, -64
	}
	// Shift the top bit to bit 127: bits 127 to 75 are the mantissa,
	// bit 74 the rounding bit, and any bit below it is sticky.
	n := bits.LeadingZeros64(hi)
	if hi == 0 {
		n = 64 + bits.LeadingZeros64(lo)
	}
	if n >= 64 {
		hi, lo = lo<<(n-64), 0
	} else {
		hi, lo = hi<<n|lo>>(64-n), lo<<n
	}
	mant := hi >> 11
	if hi&(1<<10) != 0 && (mant&1 != 0 || hi&(1<<10-1) != 0 || lo != 0 || sticky) {
		mant++
	}
	return math.Ldexp(float64(mant), 75+scale-n)
}

// numberText scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// returning the text and its value.
func (s *evalScanner) numberText() ([]byte, decimal, bool) {
	start := s.off
	d := decimal{neg: s.byte('-')}
	switch {
	case s.byte('0'):
	case s.off < len(s.buf) && s.buf[s.off] >= '1' && s.buf[s.off] <= '9':
		s.digits(&d)
	default:
		return nil, d, false
	}
	if s.byte('.') {
		n := s.digits(&d)
		if n == 0 {
			return nil, d, false
		}
		d.exp = -n
	}
	if s.byte('e') || s.byte('E') {
		neg := false
		if !s.byte('+') {
			neg = s.byte('-')
		}
		buf, i, e := s.buf, s.off, 0
		for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
			// Past 10^4 the exponent only needs to stay out of
			// float's range, and with nd ≤ 19 so does d.exp.
			if e < 1e4 {
				e = e*10 + int(buf[i]-'0')
			}
		}
		if i == s.off {
			return nil, d, false
		}
		s.off = i
		if neg {
			e = -e
		}
		d.exp += e
	}
	return s.buf[start:s.off], d, true
}

// digits scans [0-9]* into d's mantissa, returning how many it
// consumed.
func (s *evalScanner) digits(d *decimal) int {
	buf, i, m := s.buf, s.off, d.m
	for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
		m = m*10 + uint64(buf[i]-'0')
	}
	n := i - s.off
	s.off, d.m, d.nd = i, m, d.nd+n
	return n
}

func (s *evalScanner) options(o *EvalOptions) bool {
	if !s.byte('{') {
		return false
	}
	var seen uint
	for first := true; ; first = false {
		more, ok := s.next('}', first)
		if !more {
			return ok
		}
		key, ok := s.key()
		if !ok {
			return false
		}
		var bit uint
		switch string(key) {
		case "clip":
			o.Clip, ok = s.number()
			bit = 1 << 0
		case "selfNormalize":
			o.SelfNormalize, ok = s.boolean()
			bit = 1 << 1
		case "estimatePropensities":
			o.EstimatePropensities, ok = s.boolean()
			bit = 1 << 2
		case "bootstrap":
			var b int64
			b, ok = s.integer()
			o.Bootstrap = int(b)
			ok = ok && int64(o.Bootstrap) == b
			bit = 1 << 3
		case "seed":
			o.Seed, ok = s.integer()
			bit = 1 << 4
		case "refreshModel":
			o.RefreshModel, ok = s.boolean()
			bit = 1 << 5
		default:
			ok = false
		}
		if !ok || !once(&seen, bit) {
			return false
		}
	}
}

func (s *evalScanner) boolean() (bool, bool) {
	switch {
	case bytes.HasPrefix(s.buf[s.off:], []byte("true")):
		s.off += 4
		return true, true
	case bytes.HasPrefix(s.buf[s.off:], []byte("false")):
		s.off += 5
		return false, true
	}
	return false, false
}

// byte consumes c if it is next.
func (s *evalScanner) byte(c byte) bool {
	if s.off < len(s.buf) && s.buf[s.off] == c {
		s.off++
		return true
	}
	return false
}

// ws skips JSON whitespace.
func (s *evalScanner) ws() {
	for s.off < len(s.buf) {
		switch s.buf[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}
