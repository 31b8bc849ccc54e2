package server

// One-pass decoding of the data plane's JSON answers — the client twin
// of jsonstream.go. encoding/json reads a document twice (a validating
// pre-scan, then a reflective walk with a field-name look-up per point),
// which was half of all CPU on a batch of 32 windows; here the body is
// walked once, points land straight in the []geom.Point the caller
// gets, and nothing is allocated per point or per key. Only the EXPLAIN
// trace, a dozen small fields off the hot path, is left to encoding/json.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"

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

// jsonScanner is a cursor over one answer body. Like binReader its
// error is sticky: every step is a no-op once err is set, so the walks
// stay loops and a malformed body can only ever produce the error.
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
	start := s.i + 1
	for s.i = start; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			key = s.b[start:s.i]
			s.i++
			return key, s.expect(':')
		case c == '\\' || c < 0x20 || c >= 0x80:
			s.fail("key with an escape, control or non-ASCII byte")
			return nil, false
		}
	}
	s.fail("unterminated key")
	return nil, false
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

// number consumes a coordinate. The bytes are held to the JSON number
// grammar before strconv sees them: ParseFloat alone accepts "Inf", hex
// floats and underscores.
func (s *jsonScanner) number() float64 {
	if s.err != nil {
		return 0
	}
	s.ws()
	end := scanJSONNumber(s.b, s.i)
	if end < 0 {
		s.fail("expected a number")
		return 0
	}
	v, err := strconv.ParseFloat(string(s.b[s.i:end]), 64)
	if err != nil {
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
	i += len(x)
	j := scanJSONNumber(b, i)
	if j < 0 || len(b)-j < len(y) || string(b[j:j+len(y)]) != y {
		return p, -1
	}
	k := scanJSONNumber(b, j+len(y))
	if k < 0 || k >= len(b) || b[k] != '}' {
		return p, -1
	}
	var errX, errY error
	p.X, errX = strconv.ParseFloat(string(b[i:j]), 64)
	p.Y, errY = strconv.ParseFloat(string(b[j+len(y):k]), 64)
	if errX != nil || errY != nil {
		return p, -1
	}
	return p, k + 1
}

// scanJSONNumber returns the index just past the JSON number that
// starts at b[i], -1 if none does.
//
//rsmi:noalloc
func scanJSONNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipJSONDigits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		if i = skipJSONDigits(b, frac); i == frac {
			return -1
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		if i = skipJSONDigits(b, exp); i == exp {
			return -1
		}
	}
	return i
}

func skipJSONDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
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
	return scanJSONNumber(b, i)
}
