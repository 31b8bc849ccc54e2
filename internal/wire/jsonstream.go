package wire

// Appending JSON encoders of the data plane, both directions: the
// server's answers (AppendAnswersJSON) and the client's requests
// (AppendRequestJSON) — the twins of the decoders in jsondecode.go. Each appends straight from
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
// float64 (TestAppendJSONFloatMatchesMarshal): the shortest digits that
// read back as v, from shortestDecimal (Schubfach), laid out in 'f' form
// — 0.000123, 42, -0 — except below 1e-6 or from 1e21 up, where they
// take 'e' form with no leading zero in the exponent and a '+' on a
// positive one (1e-9, 1.5e+21). Engine coordinates are validated finite
// at ingress, so NaN/Inf cannot reach here.
//
//rsmi:noalloc
func appendJSONFloat(b []byte, v float64) []byte {
	f := math.Float64bits(v)
	if f>>63 != 0 {
		b = append(b, '-')
	}
	if f<<1 == 0 {
		return append(b, '0')
	}
	d, k := shortestDecimal(f)
	var buf [20]byte
	i := putDigits(buf[:], d)
	digits := buf[i:]
	n := len(digits)
	dp := n + k // v = 0.digits × 10^dp
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digits[0])
		if n > 1 {
			b = append(append(b, '.'), digits[1:]...)
		}
		x, sign := dp-1, byte('+')
		if x < 0 {
			x, sign = -x, '-'
		}
		return append(append(b, 'e', sign), buf[putDigits(buf[:], uint64(x)):]...)
	}
	switch {
	case dp <= 0:
		b = append(b, '0', '.')
		for ; dp < 0; dp++ {
			b = append(b, '0')
		}
		return append(b, digits...)
	case dp < n:
		return append(append(append(b, digits[:dp]...), '.'), digits[dp:]...)
	}
	b = append(b, digits...)
	for ; n < dp; n++ {
		b = append(b, '0')
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

// AppendAnswersJSON encodes the answer document of route rt straight
// from the executed answers — the JSON twin of AppendAnswers — as
// json.Encoder wrote the historical documents, trace last and a newline
// after: {"results":[…]} for /v1/batch, whose result objects mirror
// BatchResult's omitempty encoding (false bools and empty point lists
// encode as {}); otherwise the per-op document of answers[0], which has
// no omitempty members — {"found"|"ok"|"deleted":bool}, false included,
// or {"count":n,"points":[…]}, [] when empty. It allocates nothing
// unless tj is set.
//
//rsmi:noalloc
func AppendAnswersJSON(b []byte, rt *Spec, answers []Result, tj *TraceJSON) []byte {
	b = append(b, '{')
	switch {
	case !rt.Single():
		b = append(b, `"results":[`...)
		for i, a := range answers {
			if i > 0 {
				b = append(b, ',')
			}
			switch member := table[Row(a.Op)].Flag; {
			case member != "":
				b = append(b, '{')
				if a.Flag {
					b = appendFlagMember(b, member, true)
				}
				b = append(b, '}')
			case len(a.Pts) == 0:
				b = append(b, '{', '}')
			default:
				b = append(appendPointsMembers(append(b, '{'), a.Pts), '}')
			}
		}
		b = append(b, ']')
	case rt.Flag == "":
		b = appendPointsMembers(b, answers[0].Pts)
	default:
		b = appendFlagMember(b, rt.Flag, answers[0].Flag)
	}
	return append(appendTraceJSON(b, tj), '}', '\n')
}

// appendFlagMember appends a bool answer's one member, keyed by member:
// "found", "ok" or "deleted", as its op's row names it.
func appendFlagMember(b []byte, member string, flag bool) []byte {
	b = append(append(append(b, '"'), member...), '"', ':')
	return strconv.AppendBool(b, flag)
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

// AppendRequestJSON appends the request document of route rt for ops —
// the JSON client's encoder, the twin of DecodeJSONRequest: byte for
// byte what json.Marshal writes for the route's request type
// (TestJSONRequestEncodeMatchesMarshal), and for a NaN or ±Inf that the
// document would carry, json.Marshal's own error instead.
func AppendRequestJSON(b []byte, rt *Spec, ops []BatchOp) ([]byte, error) {
	w := jsonRequestWriter{b: append(b, '{')}
	switch {
	case rt.Single():
		for _, k := range jsonRequestKeys[rt.Req] {
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

// jsonRequestWriter is AppendRequestJSON's cursor: the document so far,
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
