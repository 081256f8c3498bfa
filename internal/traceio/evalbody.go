package traceio

import (
	"bytes"
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

// DecodeEvalView decodes an EvalRequest body in one pass, appending
// each trace record straight into a view keyed by FlatContext.Key. The
// returned request carries the policy and options; its Trace is nil,
// because the view holds the records.
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
// A repeated feature vector costs one map lookup on its raw text,
// which is memoised to its key and context, and a repeated decision
// label one lookup too; so allocations grow with distinct contexts
// and labels, not with records.
func DecodeEvalView(body []byte) (*EvalRequest, *core.TraceView[FlatContext, string], bool) {
	s := evalScanner{
		buf:      body,
		vb:       core.NewViewBuilderKeyed[FlatContext, string](FlatContext.Key),
		contexts: make(map[string]keyedContext),
		labels:   make(map[string]string),
	}
	var req EvalRequest
	if !s.request(&req) || s.vb.Len() == 0 {
		return nil, nil, false
	}
	return &req, s.vb.Snapshot(), true
}

// keyedContext is one feature text's context and where it interns.
type keyedContext struct {
	place
	ctx FlatContext
}

// place is where a context interns in a builder: by key, or, when key
// is empty (Key never returns ""), as the code an ingest builder
// already gave it.
type place struct {
	key  string
	code int32
}

// evalScanner is a cursor over one body. Every method returns false
// on anything outside the canonical shape, leaving the body to the
// reference path.
type evalScanner struct {
	buf []byte
	off int
	// vb is the builder records join: DecodeEvalView's own, or the
	// stream's that DecodeIngest resolves known feature text against.
	vb *core.ViewBuilder[FlatContext, string]
	// ingest makes features consult vb's keys before parsing.
	ingest bool
	// contexts memoises raw feature-array text; labels memoises raw
	// decision bytes to one string each.
	contexts map[string]keyedContext
	labels   map[string]string
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
			return once(&seen, seenTrace) && s.trace()
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

func (s *evalScanner) trace() bool {
	if !s.byte('[') {
		return false
	}
	for first := true; ; first = false {
		if more, ok := s.next(']', first); !more {
			return ok
		}
		kc, rec, ok := s.record()
		if !ok || s.vb.AppendKeyed(kc.key, rec) != nil {
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

// record scans one trace record, returning its context's placement
// and the record. A field the record omits keeps its zero value, as
// under encoding/json.
//
//lint:hot perrecord
func (s *evalScanner) record() (keyedContext, core.Record[FlatContext, string], bool) {
	var seen uint
	var rec core.Record[FlatContext, string]
	kc := keyedContext{place: place{key: "[]"}}
	if !s.byte('{') {
		return kc, rec, false
	}
	for first := true; ; first = false {
		more, ok := s.next('}', first)
		if !more {
			if !ok {
				return kc, rec, false
			}
			break
		}
		key, ok := s.key()
		if !ok {
			return kc, rec, false
		}
		switch string(key) {
		case "features":
			kc, ok = s.features()
			ok = ok && once(&seen, seenFeatures)
		case "decision":
			rec.Decision, ok = s.label()
			ok = ok && once(&seen, seenDecision)
		case "reward":
			rec.Reward, ok = s.number()
			ok = ok && once(&seen, seenReward)
		case "propensity":
			rec.Propensity, ok = s.number()
			ok = ok && once(&seen, seenPropensity)
		default:
			ok = false
		}
		if !ok {
			return kc, rec, false
		}
	}
	rec.Context = kc.ctx
	return kc, rec, true
}

// features scans a feature array. Text seen before is a memo hit: the
// first sighting validated it, so only its end is found. On an ingest
// scan, text that is already one of the builder's keys takes that
// context's code and vector (knownContext). Other text is parsed,
// keyed with FlatContext.Key and memoised.
func (s *evalScanner) features() (keyedContext, bool) {
	if s.off >= len(s.buf) || s.buf[s.off] != '[' {
		return keyedContext{}, false
	}
	n := bytes.IndexByte(s.buf[s.off:], ']')
	if n < 0 {
		return keyedContext{}, false
	}
	raw := s.buf[s.off : s.off+n+1]
	if kc, ok := s.contexts[string(raw)]; ok {
		s.off += len(raw)
		return kc, true
	}
	if s.ingest {
		if code, ctx, ok := knownContext(s.vb, raw); ok {
			s.off += len(raw)
			return keyedContext{place: place{code: code}, ctx: ctx}, true
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
				return keyedContext{}, false
			}
			break
		}
		f, ok := s.number()
		if !ok {
			return keyedContext{}, false
		}
		//lint:allow hotalloc into the capacity counted above
		feats = append(feats, f)
	}
	ctx := FlatContext{Features: feats}
	kc := keyedContext{place: place{key: ctx.Key()}, ctx: ctx}
	// Keyed by its own copy of the text: once per distinct feature text.
	s.contexts[string(raw)] = kc
	return kc, true
}

// label scans a decision string, returning one shared string per
// distinct label.
func (s *evalScanner) label() (string, bool) {
	raw, ok := s.str()
	if !ok {
		return "", false
	}
	if l, ok := s.labels[string(raw)]; ok {
		return l, true
	}
	// Once per distinct label.
	l := string(raw)
	s.labels[l] = l
	return l, true
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

// number scans a strict JSON number into a float64, as encoding/json
// would; out-of-range values fail.
func (s *evalScanner) number() (float64, bool) {
	raw, ok := s.numberText()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	return f, err == nil
}

// integer scans a strict JSON number into an int64, as encoding/json
// does for an integer field: fractions and exponents fail.
func (s *evalScanner) integer() (int64, bool) {
	raw, ok := s.numberText()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	return v, err == nil
}

// numberText scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *evalScanner) numberText() ([]byte, bool) {
	start := s.off
	s.byte('-')
	switch {
	case s.byte('0'):
	case s.off < len(s.buf) && s.buf[s.off] >= '1' && s.buf[s.off] <= '9':
		s.digits()
	default:
		return nil, false
	}
	if s.byte('.') && !s.digits() {
		return nil, false
	}
	if s.byte('e') || s.byte('E') {
		if !s.byte('+') {
			s.byte('-')
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.buf[start:s.off], true
}

// digits scans [0-9]*, reporting whether it consumed any.
func (s *evalScanner) digits() bool {
	start := s.off
	for s.off < len(s.buf) && s.buf[s.off] >= '0' && s.buf[s.off] <= '9' {
		s.off++
	}
	return s.off > start
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
