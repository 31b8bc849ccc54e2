package server

// Appending JSON encoders of the data plane, both directions: the
// server's answers (appendBatchAnswersJSON, appendPointsJSON,
// appendFlagJSON) and the client's requests (appendRequestJSON) — the
// twins of the decoders in jsondecode.go. Each appends straight from
// engine points or ops into the caller's buffer, with O(1) allocations
// per document (TestBatchJSONEncodeAllocs), and writes exactly the bytes
// encoding/json writes for the historical wire type — field order,
// omitempty behaviour, float formatting and HTML escaping included — so
// every JSON peer reads the documents it always did. encoding/json is
// left the EXPLAIN trace and the rare string that needs escaping.

import (
	"encoding/json"
	"math"
	"strconv"

	"rsmi/internal/geom"
)

// appendJSONFloat appends v formatted exactly as encoding/json formats a
// float64: shortest round-trip representation, 'f' form except for very
// small or very large magnitudes, which use 'e' form with the exponent's
// leading zero stripped (1e-9, not 1e-09) — positive exponents keep
// their '+' (1e+21), matching encoding/json byte for byte. Engine
// coordinates are validated finite at ingress, so NaN/Inf cannot reach
// here.
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendTraceJSON appends the EXPLAIN trace as the document's last
// member, as encoding/json renders the Trace field every response type
// ends with: nothing when tj is nil (omitempty). Only this part of an
// answer is marshalled reflectively — a trace is a dozen small fields,
// and EXPLAIN must not change which encoder the points leave through.
func appendTraceJSON(b []byte, tj *TraceJSON) []byte {
	if tj == nil {
		return b
	}
	raw, err := json.Marshal(tj)
	if err != nil {
		// Only a non-finite stage time can fail; the answer is worth
		// more than its trace.
		return b
	}
	b = append(b, `,"trace":`...)
	return append(b, raw...)
}

// appendBatchAnswersJSON encodes a whole BatchResponse document straight
// from the executed answers — the JSON twin of appendBatchAnswers.
// Result objects mirror BatchResult's omitempty encoding: false bools and
// empty point lists encode as {}. It allocates nothing unless tj is set.
//
//rsmi:noalloc
func appendBatchAnswersJSON(b []byte, answers []batchAnswer, tj *TraceJSON) []byte {
	b = append(b, `{"results":[`...)
	for i, a := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		switch member := opTable[opRow(a.op)].flag; {
		case member != "":
			b = append(b, '{')
			if a.flag {
				b = appendFlagMember(b, member, true)
			}
			b = append(b, '}')
		case len(a.pts) == 0:
			b = append(b, '{', '}')
		default:
			b = append(appendPointsMembers(append(b, '{'), a.pts), '}')
		}
	}
	b = appendTraceJSON(append(b, ']'), tj)
	return append(b, '}', '\n')
}

// appendFlagMember appends a bool answer's one member, keyed by member:
// "found", "ok" or "deleted", as its op's row names it.
func appendFlagMember(b []byte, member string, flag bool) []byte {
	b = append(append(append(b, '"'), member...), '"', ':')
	return strconv.AppendBool(b, flag)
}

// appendFlagJSON encodes the per-op bool documents — FoundResponse,
// OKResponse, DeletedResponse — as json.Encoder writes them: the flag,
// false included, then the trace and a newline.
//
//rsmi:noalloc
func appendFlagJSON(b []byte, op string, flag bool, tj *TraceJSON) []byte {
	b = appendFlagMember(append(b, '{'), opTable[opRow(op)].flag, flag)
	return append(appendTraceJSON(b, tj), '}', '\n')
}

// appendPointsMembers appends the "count" and "points" members of a
// points answer straight from the engine's points.
func appendPointsMembers(b []byte, pts []geom.Point) []byte {
	b = append(b, `"count":`...)
	b = strconv.AppendInt(b, int64(len(pts)), 10)
	b = append(b, `,"points":[`...)
	for j, p := range pts {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":`...)
		b = appendJSONFloat(b, p.X)
		b = append(b, `,"y":`...)
		b = appendJSONFloat(b, p.Y)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendPointsJSON encodes a PointsResponse document straight from the
// engine's points — the per-op (/v1/window, /v1/knn) twin of
// appendBatchAnswersJSON. Unlike a batch result object, PointsResponse
// has no omitempty fields, so an empty answer still encodes
// {"count":0,"points":[]} exactly as encoding/json renders the
// non-nil slice toPoints always produced. It allocates nothing unless tj
// is set.
//
//rsmi:noalloc
func appendPointsJSON(b []byte, pts []geom.Point, tj *TraceJSON) []byte {
	b = appendTraceJSON(appendPointsMembers(append(b, '{'), pts), tj)
	return append(b, '}', '\n')
}

// appendRequestJSON appends the request document of route rt for ops —
// the JSON client's encoder, the twin of decodeJSONRequest: byte for
// byte what json.Marshal writes for the route's request type
// (TestJSONRequestEncodeMatchesMarshal), and for a NaN or ±Inf that the
// document would carry, json.Marshal's own error instead.
func appendRequestJSON(b []byte, rt *opSpec, ops []BatchOp) ([]byte, error) {
	w := jsonRequestWriter{b: append(b, '{')}
	switch {
	case rt.req != reqBatch:
		for _, k := range jsonRequestKeys[rt.req] {
			w.field(k, &ops[0], false)
		}
	case ops == nil:
		w.b = append(w.b, `"ops":null`...)
	default:
		w.b = append(w.b, `"ops":[`...)
		for i := range ops {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = append(w.b, '{')
			for _, k := range jsonRequestKeys[reqBatch] {
				w.field(k, &ops[i], k != "op") // BatchOp's omitempty tags
			}
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	if w.err != nil {
		return nil, w.err
	}
	return append(w.b, '}'), nil
}

// jsonRequestWriter is appendRequestJSON's cursor: the document so far,
// and json.Marshal's error for the first value JSON cannot spell.
type jsonRequestWriter struct {
	b   []byte
	err error
}

// field writes op's member k — the field requestField names — unless
// omitEmpty and the field holds its zero value, as an omitempty tag
// leaves it out. A string json.Marshal writes as it is (printable ASCII
// but '"', '\\' and the HTML-escaped '<', '>', '&') is copied; any other
// goes through json.Marshal.
func (w *jsonRequestWriter) field(k string, op *BatchOp, omitEmpty bool) {
	switch f := requestField(op, k).(type) {
	case *float64:
		if math.IsNaN(*f) || math.IsInf(*f, 0) {
			if w.err == nil {
				_, w.err = json.Marshal(*f) // the *json.UnsupportedValueError, word for word
			}
		} else if !omitEmpty || *f != 0 {
			w.b = appendJSONFloat(w.key(k), *f)
		}
	case *int:
		if !omitEmpty || *f != 0 {
			w.b = strconv.AppendInt(w.key(k), int64(*f), 10)
		}
	case *uint64:
		if !omitEmpty || *f != 0 {
			w.b = strconv.AppendUint(w.key(k), *f, 10)
		}
	case *string:
		if omitEmpty && *f == "" {
			return
		}
		for i := 0; i < len(*f); i++ {
			if c := (*f)[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				q, _ := json.Marshal(*f) // a string always marshals
				w.b = append(w.key(k), q...)
				return
			}
		}
		w.b = append(append(append(w.key(k), '"'), *f...), '"')
	}
}

// key opens member k of the object being written, returning the buffer.
func (w *jsonRequestWriter) key(k string) []byte {
	if w.b[len(w.b)-1] != '{' {
		w.b = append(w.b, ',')
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	return append(w.b, '"', ':')
}
