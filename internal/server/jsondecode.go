package server

// One-pass decoding of the data plane's JSON, both directions: the
// client reads answers (decodeJSONResults), the server reads requests
// (decodeJSONRequest); jsonstream.go holds the encoders they mirror.
// encoding/json reads a document twice — a validating pre-scan, then a
// reflective walk with a field-name look-up per value. Here a body is
// walked once, each number converted in the walk that checks its grammar
// (scanJSONFloat), values landing straight in the caller's []geom.Point
// or []BatchOp. encoding/json is left an answer's EXPLAIN trace and the
// requests the walk declines, which the Go client writes only when a
// string needs escaping.

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"rsmi/internal/geom"
)

// jsonMaxDepth caps the nesting of a value the decoder skips or slices
// out (an unknown key's, the trace): deeper is an error, so a hostile
// body cannot grow the stack without bound.
const jsonMaxDepth = 1000

// The keys encoding/json matched — case-insensitively — into the union
// struct this decoder replaced. An object may carry each once; the last
// two belong to the document, not to a result inside it.
const (
	jsonKeyFound = iota
	jsonKeyDeleted
	jsonKeyOK
	jsonKeyPoints
	jsonKeyResults
	jsonKeyTrace
)

var jsonAnswerKeys = [...]string{
	jsonKeyFound:   "found",
	jsonKeyDeleted: "deleted",
	jsonKeyOK:      "ok",
	jsonKeyPoints:  "points",
	jsonKeyResults: "results",
	jsonKeyTrace:   "trace",
}

// decodeJSONResults parses the 2xx body of a JSON data-plane answer —
// the JSON twin of decodeBinaryResults. single selects the per-op
// documents (FoundResponse, OKResponse, DeletedResponse, PointsResponse:
// one result, its kind chosen by ops[0]); otherwise the body is a
// BatchResponse and must carry exactly len(ops) results. A non-2xx body
// never gets here: handleResponse reads it as an ErrorResponse.
//
// Accepted is any JSON document that spells one of those answers: keys
// in any order, any JSON whitespace, "found"/"deleted"/"ok" as booleans,
// "points" as an array of {"x":number,"y":number} objects (or null, a Go
// encoder's nil slice — as "results" and "trace" may be), "count" used
// only to size the point slice and never trusted beyond the bytes that
// remain, unknown keys skipped after their value is validated, "trace"
// handed to encoding/json. For every body it accepts, the answer is the
// one encoding/json gave for the same bytes (FuzzDecodeJSONResults holds
// it to that).
//
// Rejected, where encoding/json would have folded or guessed: a key that
// equals a known one only case-insensitively, any key spelt with an
// escape or a non-ASCII byte, an answer key repeated within one object,
// null where a boolean, a point or a coordinate belongs, "results" in a
// per-op answer or more of them than ops, nesting beyond jsonMaxDepth,
// and anything but whitespace after the document (which Decoder.Decode
// never looked at). The server writes none of these. A malformed body
// yields an error, never a partial answer; a coordinate outside
// float64's range is the *json.UnmarshalTypeError it always was. A
// result spelt only in the other kind's keys — points for a bool op, a
// boolean for a points op — comes back as that kind, for dataPlane.do to
// refuse with errBinResultKind as it does a binary result's wrong tag.
func decodeJSONResults(body []byte, single bool, ops []BatchOp) ([]binResult, *TraceJSON, error) {
	s := jsonScanner{b: body, single: single, ops: ops}
	op := ""
	if single {
		op = ops[0].Op
	}
	res := s.answer(true, op)
	if s.ws(); s.i < len(s.b) {
		s.fail("unexpected data after the document")
	}
	if s.err != nil {
		return nil, nil, s.err
	}
	var tj *TraceJSON
	if s.trace != nil {
		var t *TraceJSON // its own variable: &tj would put every answer's on the heap
		if err := json.Unmarshal(s.trace, &t); err != nil {
			return nil, nil, fmt.Errorf("client: JSON answer: trace: %w", err)
		}
		tj = t
	}
	if single {
		return []binResult{res}, tj, nil
	}
	if len(s.results) != len(ops) {
		return nil, nil, fmt.Errorf("client: batch returned %d results for %d ops", len(s.results), len(ops))
	}
	return s.results, tj, nil
}

// jsonScanner is a cursor over one body. Like binReader its error is
// sticky: every step is a no-op once err is set, so the walks stay loops
// and a malformed body can only ever produce the error. The last four
// fields serve the answer walk only.
type jsonScanner struct {
	b   []byte
	i   int
	err error

	single  bool
	ops     []BatchOp
	results []binResult // the "results" array of a batch answer
	trace   []byte      // the raw "trace" value, when present
}

func (s *jsonScanner) fail(what string) {
	if s.err == nil {
		s.err = fmt.Errorf("client: JSON answer: %s at byte %d", what, s.i)
	}
}

// ws skips whitespace and returns the byte it stops at, 0 at the end of
// the body.
func (s *jsonScanner) ws() byte {
	s.i = skipJSONSpace(s.b, s.i)
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// expect consumes c, after any whitespace.
func (s *jsonScanner) expect(c byte) bool {
	if s.err == nil && s.ws() == c {
		s.i++
		return true
	}
	s.fail("expected '" + string(c) + "'")
	return false
}

// literal consumes lit, after any whitespace, if it is next.
func (s *jsonScanner) literal(lit string) bool {
	if s.err != nil {
		return false
	}
	s.ws()
	end := skipJSONLiteral(s.b, s.i, lit)
	if end >= 0 {
		s.i = end
	}
	return end >= 0
}

// next steps past what stands between two members or elements of the
// container whose opener is consumed — nothing before the first, a
// comma after — and reports whether another follows: false at the closer
// (consumed) and after an error.
func (s *jsonScanner) next(first bool, closer byte) bool {
	if s.err != nil {
		return false
	}
	switch c := s.ws(); {
	case c == closer:
		s.i++
		return false
	case first:
		return true
	case c == ',':
		s.i++
		return true
	}
	s.fail("expected ',' or '" + string(closer) + "'")
	return false
}

// member steps to the next member of an object and returns its key with
// the cursor on the value. Keys are taken literally: one spelt with an
// escape or a non-ASCII byte could equal a known key in ways this
// decoder does not compute, so it is an error.
func (s *jsonScanner) member(first bool) (key []byte, ok bool) {
	if !s.next(first, '}') {
		return nil, false
	}
	if s.ws() != '"' {
		s.fail("expected a key")
		return nil, false
	}
	end, ascii := scanJSONPlainString(s.b, s.i)
	if end < 0 || !ascii {
		s.fail("unterminated key, or one with an escape, control or non-ASCII byte")
		return nil, false
	}
	key = s.b[s.i+1 : end-1]
	s.i = end
	return key, s.expect(':')
}

// answer walks one result object — the whole document when top, where
// "results" and "trace" may appear too — into the result op is owed: its
// points, or the OR of its booleans. An object spelt only in the other
// kind's keys keeps that kind, so the caller's kind check refuses it as
// it refuses a binary result of the wrong tag; {} fits either.
func (s *jsonScanner) answer(top bool, op string) binResult {
	if !s.expect('{') {
		return binResult{}
	}
	var (
		seen, hint int
		flag       bool
		pts        []geom.Point
	)
	for first := true; ; first = false {
		key, ok := s.member(first)
		if !ok {
			break
		}
		known := -1
		for i, name := range jsonAnswerKeys {
			if string(key) == name {
				known = i
			} else if len(key) == len(name) && strings.EqualFold(string(key), name) {
				s.fail("key matches \"" + name + "\" only case-insensitively")
			}
		}
		switch {
		case known < 0 && string(key) == "count":
			hint = s.count()
			continue
		case known < 0:
			s.skip()
			continue
		case seen&(1<<known) != 0:
			s.fail("duplicate key \"" + jsonAnswerKeys[known] + "\"")
		case !top && known >= jsonKeyResults:
			s.fail("\"" + jsonAnswerKeys[known] + "\" inside a result")
		}
		seen |= 1 << known
		switch known {
		case jsonKeyFound, jsonKeyDeleted, jsonKeyOK:
			flag = s.bool() || flag
		case jsonKeyPoints:
			pts = s.points(hint)
		case jsonKeyResults:
			s.resultList()
		case jsonKeyTrace:
			s.trace = s.skip()
		}
	}
	hasPoints := seen&(1<<jsonKeyPoints) != 0
	hasBool := seen&(1<<jsonKeyFound|1<<jsonKeyDeleted|1<<jsonKeyOK) != 0
	if hasPoints == hasBool {
		hasPoints = pointsResult(op)
	}
	if hasPoints {
		return binResult{tag: binResPoints, pts: pts}
	}
	return binResult{tag: binResBool, flag: flag}
}

// bool consumes true or false.
func (s *jsonScanner) bool() bool {
	switch {
	case s.literal("true"):
		return true
	case s.literal("false"):
		return false
	}
	s.fail("expected true or false")
	return false
}

// count consumes a "count" value — any JSON value, encoding/json never
// decoded it — and returns it when it is a plain small integer, the
// only form worth believing as a size hint.
func (s *jsonScanner) count() int {
	if v := s.skip(); len(v) <= 9 {
		if n, err := strconv.Atoi(string(v)); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// skip consumes one value of any kind, validating it, and returns its
// bytes.
func (s *jsonScanner) skip() []byte {
	if s.err != nil {
		return nil
	}
	s.ws()
	end := skipJSONValue(s.b, s.i, 0)
	if end < 0 {
		s.fail("invalid or too deeply nested value")
		return nil
	}
	v := s.b[s.i:end]
	s.i = end
	return v
}

// resultList consumes the "results" array of a batch answer into
// s.results, one result per op in order.
func (s *jsonScanner) resultList() {
	if s.single {
		s.fail("\"results\" in a per-op answer")
	}
	if s.literal("null") || !s.expect('[') {
		return
	}
	s.results = make([]binResult, 0, len(s.ops))
	for first := true; s.next(first, ']'); first = false {
		n := len(s.results)
		if n == len(s.ops) {
			s.fail("more results than ops")
			return
		}
		s.results = append(s.results, s.answer(false, s.ops[n].Op))
	}
}

// points consumes a "points" array into engine points. hint is the
// preceding "count", if any: it sizes the slice, but a point is at least
// "{}," on the wire, so no more is reserved than the rest of the body
// could hold.
func (s *jsonScanner) points(hint int) []geom.Point {
	if s.literal("null") || !s.expect('[') {
		return nil
	}
	if most := (len(s.b) - s.i) / 3; hint > most {
		hint = most
	}
	pts := make([]geom.Point, 0, hint)
	for first := true; s.next(first, ']'); first = false {
		p, end := scanJSONPoint(s.b, s.i)
		if end < 0 {
			p = s.point()
		} else {
			s.i = end
		}
		pts = append(pts, p)
	}
	if s.err != nil {
		return nil
	}
	return pts
}

// point consumes one point object the general way: scanJSONPoint has
// declined it. A coordinate given twice keeps the later value, which is
// encoding/json's answer too.
func (s *jsonScanner) point() (p geom.Point) {
	if !s.expect('{') {
		return p
	}
	for first := true; ; first = false {
		key, ok := s.member(first)
		if !ok {
			return p
		}
		switch string(key) {
		case "x":
			p.X = s.number()
		case "y":
			p.Y = s.number()
		case "X", "Y":
			s.fail("coordinate key in upper case")
		default:
			s.skip()
		}
	}
}

// jsonRequestKeys lists, per request shape, the keys its type's json
// tags spell, in field order; an op inside a batch takes BatchOp's.
// appendRequestJSON writes them in this order, the walk reads nothing
// else, and an rsmibin entry carries the same fields in the same order.
var jsonRequestKeys = [...][]string{
	reqPoint: {"x", "y"},
	reqRect:  {"min_x", "min_y", "max_x", "max_y"},
	reqKNN:   {"x", "y", "k"},
	reqSQL:   {"query"},
	reqBatch: {"op", "x", "y", "k", "min_x", "min_y", "max_x", "max_y", "sql", "sub_id", "sub_kind"},
	reqSubID: {"sub_id"},
}

// requestField returns the BatchOp field of op that request key k fills:
// a *float64, *int, *uint64 or *string.
func requestField(op *BatchOp, k string) interface{} {
	switch k {
	case "op":
		return &op.Op
	case "x":
		return &op.X
	case "y":
		return &op.Y
	case "k":
		return &op.K
	case "min_x":
		return &op.MinX
	case "min_y":
		return &op.MinY
	case "max_x":
		return &op.MaxX
	case "max_y":
		return &op.MaxY
	case "sub_id":
		return &op.SubID
	case "sub_kind":
		return &op.SubKind
	}
	return &op.SQL // "sql", "query"
}

// decodeJSONRequest reads the JSON request document of route rt — a
// per-op endpoint's PointJSON, RectJSON, KNNJSON or SQLRequest (one op,
// rt's), or /v1/batch's BatchRequest — into ops appended to buf[:0].
// It accepts exactly the bodies json.Unmarshal accepts into the route's
// type, and gives the ops json.Unmarshal gives (FuzzDecodeJSONRequest
// holds it to that), with one limit of its own: a batch of more than
// maxBatchOps ops is errTooManyOps, found while decoding.
//
// The walk (scanJSONRequest) takes keys in any order and any JSON
// whitespace. Whatever it cannot promise to read as encoding/json does
// sends the whole body to json.Unmarshal, which then decides: a key that
// is not byte-for-byte one of the shape's json tags (json.Unmarshal
// folds case, and skips unknown keys), a string with an escape or
// invalid UTF-8, a key repeated within one object (a second "ops" array
// is decoded into the first's elements), a value of another type (null
// leaves a field as it was), and a malformed body.
func decodeJSONRequest(body []byte, rt *opSpec, buf []BatchOp) ([]BatchOp, error) {
	ops, err := scanJSONRequest(body, rt, buf)
	if err == nil || err == errTooManyOps {
		return ops, err
	}
	return unmarshalJSONRequest(body, rt, buf)
}

// scanJSONRequest is decodeJSONRequest's one-pass walk. An error other
// than errTooManyOps means the walk declined the body, not that the body
// is bad.
func scanJSONRequest(body []byte, rt *opSpec, buf []BatchOp) ([]BatchOp, error) {
	s := jsonScanner{b: body}
	ops := buf[:0]
	if rt.req == reqBatch {
		ops = s.batchRequest(ops)
	} else {
		ops = append(ops, BatchOp{Op: rt.op})
		s.requestObject(rt.req, &ops[0])
	}
	if s.ws(); s.i < len(s.b) {
		s.fail("unexpected data after the document")
	}
	return ops, s.err
}

// unmarshalJSONRequest is decodeJSONRequest's reflective way: the body
// through json.Unmarshal into the route's type.
func unmarshalJSONRequest(body []byte, rt *opSpec, buf []BatchOp) ([]BatchOp, error) {
	op := BatchOp{Op: rt.op}
	var err error
	switch rt.req {
	case reqPoint:
		var v PointJSON
		err = json.Unmarshal(body, &v)
		op.X, op.Y = v.X, v.Y
	case reqRect:
		var v RectJSON
		err = json.Unmarshal(body, &v)
		op.MinX, op.MinY, op.MaxX, op.MaxY = v.MinX, v.MinY, v.MaxX, v.MaxY
	case reqKNN:
		var v KNNJSON
		err = json.Unmarshal(body, &v)
		op.X, op.Y, op.K = v.X, v.Y, v.K
	case reqSQL:
		var v SQLRequest
		err = json.Unmarshal(body, &v)
		op.SQL = v.Query
	default:
		var v BatchRequest
		if err = json.Unmarshal(body, &v); err == nil && len(v.Ops) > maxBatchOps {
			err = errTooManyOps
		}
		return v.Ops, err
	}
	return append(buf[:0], op), err
}

// batchRequest walks a BatchRequest — {}, {"ops":null} (a Go client's
// nil slice) or {"ops":[…]} — appending its ops to ops.
func (s *jsonScanner) batchRequest(ops []BatchOp) []BatchOp {
	if !s.expect('{') {
		return ops
	}
	for first := true; ; first = false {
		key, ok := s.member(first)
		if !ok {
			return ops
		}
		if !first || string(key) != "ops" {
			s.fail("a key other than one \"ops\"")
			return ops
		}
		if s.literal("null") || !s.expect('[') {
			continue
		}
		for firstOp := true; s.next(firstOp, ']'); firstOp = false {
			if len(ops) == maxBatchOps {
				s.err = errTooManyOps
				return ops
			}
			ops = append(ops, BatchOp{})
			s.requestObject(reqBatch, &ops[len(ops)-1])
		}
	}
}

// requestObject walks one request object of shape into op: a per-op
// document, or an op inside a batch (reqBatch).
func (s *jsonScanner) requestObject(shape reqShape, op *BatchOp) {
	if !s.expect('{') {
		return
	}
	var seen uint16
	for first := true; ; first = false {
		key, ok := s.member(first)
		if !ok {
			return
		}
		j := -1
		for i, name := range jsonRequestKeys[shape] {
			if string(key) == name {
				j = i
				break
			}
		}
		if j < 0 || seen&(1<<j) != 0 {
			s.fail("a key json.Unmarshal may read otherwise")
			return
		}
		seen |= 1 << j
		switch f := requestField(op, jsonRequestKeys[shape][j]).(type) {
		case *float64:
			*f = s.number()
		case *int:
			*f = int(s.integer(true))
		case *uint64:
			*f = s.integer(false)
		case *string: // one whose bytes are its value: no escape, valid UTF-8
			end, ascii := -1, true
			if s.ws() == '"' {
				end, ascii = scanJSONPlainString(s.b, s.i)
			}
			if end < 0 || !ascii && !utf8.Valid(s.b[s.i+1:end-1]) {
				s.fail("expected a string with nothing to unescape")
				return
			}
			*f, s.i = jsonName(s.b[s.i+1:end-1]), end
		}
	}
}

// integer consumes a number that json.Unmarshal reads into an int — or,
// when !signed, a uint64 — and reads it as json.Unmarshal does, with
// strconv; it returns the value's bits. A fraction, an exponent or a
// value beyond the type fails.
func (s *jsonScanner) integer(signed bool) uint64 {
	if s.err != nil {
		return 0
	}
	s.ws()
	_, end := scanJSONFloat(s.b, s.i)
	if end < 0 {
		s.fail("expected an integer")
		return 0
	}
	var n uint64
	var err error
	if lit := string(s.b[s.i:end]); signed {
		var v int64
		v, err = strconv.ParseInt(lit, 10, 0)
		n = uint64(v)
	} else {
		n, err = strconv.ParseUint(lit, 10, 64)
	}
	if err != nil {
		s.fail("expected an integer in range")
		return 0
	}
	s.i = end
	return n
}

// jsonName returns the string b spells, sharing the op or
// subscription-kind name it may be rather than allocating a copy.
func jsonName(b []byte) string {
	for i := range opTable {
		if string(b) == opTable[i].op {
			return opTable[i].op
		}
	}
	return string(b)
}

// number consumes a coordinate. One that overflows float64 is the
// *json.UnmarshalTypeError encoding/json gave.
func (s *jsonScanner) number() float64 {
	if s.err != nil {
		return 0
	}
	s.ws()
	v, end := scanJSONFloat(s.b, s.i)
	switch {
	case end < 0:
		s.fail("expected a number")
		return 0
	case math.IsInf(v, 0):
		s.err = &json.UnmarshalTypeError{Value: "number " + string(s.b[s.i:end]), Type: reflect.TypeOf(v), Offset: int64(end)}
		return 0
	}
	s.i = end
	return v
}

// scanJSONPoint decodes exactly the bytes jsonstream.go writes for a
// point — {"x":number,"y":number}, no whitespace — starting at b[i],
// and returns the index just past them; -1 sends the caller the general
// way, which also reports whatever is wrong.
//
//rsmi:noalloc
func scanJSONPoint(b []byte, i int) (p geom.Point, end int) {
	const x, y = `{"x":`, `,"y":`
	if len(b)-i < len(x) || string(b[i:i+len(x)]) != x {
		return p, -1
	}
	p.X, i = scanJSONFloat(b, i+len(x))
	if i < 0 || len(b)-i < len(y) || string(b[i:i+len(y)]) != y {
		return p, -1
	}
	p.Y, i = scanJSONFloat(b, i+len(y))
	if i < 0 || i >= len(b) || b[i] != '}' || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return p, -1
	}
	return p, i + 1
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanJSONFloat converts the JSON number that starts at b[i] in the walk
// that holds it to the grammar (strconv.ParseFloat alone would take
// "Inf", hex floats and underscores), and returns it with the index just
// past it, -1 if no number starts there. A number beyond float64's range
// is ±Inf, which no other JSON number converts to. The first 19
// significant digits make a uint64 mantissa m; later ones only move the
// decimal exponent e. When none of those is non-zero, m ≤ 2^53 and
// |e| ≤ 22, m and 10^|e| are exact float64s and one correctly rounded
// multiply or divide is the answer: the exact path strconv takes after
// its own walk over the digits. Anything else goes to strconv.ParseFloat
// on the checked bytes. Either way the result is ParseFloat's, bit for
// bit (TestJSONNumberMatchesParseFloat).
//
//rsmi:noalloc
func scanJSONFloat(b []byte, i int) (v float64, end int) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, -1
	}
	var m uint64
	var nd, e int // digits in m, decimal exponent
	var dropped bool
	if b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < 19 {
				m, nd = m*10+uint64(b[i]-'0'), nd+1
			} else {
				e, dropped = e+1, dropped || b[i] != '0'
			}
		}
	}
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		for i = frac; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			switch {
			case nd == 0 && b[i] == '0': // a leading zero
				e--
			case nd < 19:
				m, nd, e = m*10+uint64(b[i]-'0'), nd+1, e-1
			default:
				dropped = dropped || b[i] != '0'
			}
		}
		if i == frac {
			return 0, -1
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp, digits := 0, i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if exp < 10000 { // past any float64, and no int overflow
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == digits {
			return 0, -1
		}
		if eneg {
			exp = -exp
		}
		e += exp
	}
	if !dropped && m <= 1<<53 && -22 <= e && e <= 22 {
		v = float64(m)
		if e >= 0 {
			v *= float64pow10[e]
		} else {
			v /= float64pow10[-e]
		}
		if neg {
			v = -v
		}
		return v, i
	}
	v, _ = strconv.ParseFloat(string(b[start:i]), 64) // only ErrRange, with v ±Inf
	return v, i
}

// scanJSONPlainString returns the index just past the string whose
// opening quote is b[i] when it holds no escape and no control byte — its
// bytes are then its value, once they are valid UTF-8 — and whether they
// are all ASCII; end is -1 for any other string, or none.
//
//rsmi:noalloc
func scanJSONPlainString(b []byte, i int) (end int, ascii bool) {
	ascii = true
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, ascii
		case c == '\\' || c < 0x20:
			return -1, ascii
		case c >= 0x80:
			ascii = false
		}
	}
	return -1, ascii
}

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// skipJSONLiteral returns the index just past lit at b[i], -1 if
// something else is there.
func skipJSONLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipJSONString returns the index just past the string whose opening
// quote is b[i], -1 if it is malformed: an unescaped control byte, an
// escape JSON does not have, no closing quote. Invalid UTF-8 passes, as
// it does in encoding/json.
func skipJSONString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if i++; i >= len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h|0x20 && h|0x20 <= 'f') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// skipJSONValue returns the index just past the JSON value of any kind
// that starts at b[i] (no leading whitespace), having checked it
// against the whole grammar; -1 if it is malformed or nests more than
// jsonMaxDepth containers below depth.
//
//rsmi:noalloc
func skipJSONValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; c {
	case '"':
		return skipJSONString(b, i)
	case 't':
		return skipJSONLiteral(b, i, "true")
	case 'f':
		return skipJSONLiteral(b, i, "false")
	case 'n':
		return skipJSONLiteral(b, i, "null")
	case '{', '[':
		if depth++; depth > jsonMaxDepth {
			return -1
		}
		closer := c + 2 // '}' after '{', ']' after '['
		i = skipJSONSpace(b, i+1)
		if i < len(b) && b[i] == closer {
			return i + 1
		}
		for {
			if c == '{' {
				if i >= len(b) || b[i] != '"' {
					return -1
				}
				if i = skipJSONString(b, i); i < 0 {
					return -1
				}
				if i = skipJSONSpace(b, i); i >= len(b) || b[i] != ':' {
					return -1
				}
				i = skipJSONSpace(b, i+1)
			}
			if i = skipJSONValue(b, i, depth); i < 0 {
				return -1
			}
			if i = skipJSONSpace(b, i); i >= len(b) {
				return -1
			}
			if b[i] == closer {
				return i + 1
			}
			if b[i] != ',' {
				return -1
			}
			i = skipJSONSpace(b, i+1)
		}
	}
	_, end := scanJSONFloat(b, i)
	return end
}
