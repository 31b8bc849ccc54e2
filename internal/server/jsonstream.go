package server

// Streaming JSON encoding of /v1/batch responses. The binary path has
// encoded batch answers straight from the engine's []geom.Point into a
// pooled buffer since rsmibin landed; the JSON path used to build a
// []BatchResult with one []PointJSON per window/kNN answer first — two
// allocations per result plus the encoder's reflection walk, pure GC
// pressure at batch sizes of 32+. This file closes the ROADMAP
// "Streaming/zero-copy JSON" item: batch answers are appended directly
// into the same pooled buffer as the binary path, with O(1) allocations
// per batch (asserted by TestBatchJSONEncodeAllocs), producing exactly
// the bytes encoding/json would for BatchResponse — field order,
// omitempty behaviour, and float formatting included — so JSON clients
// decode the same documents they always did.

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
		switch a.op {
		case OpPoint:
			if a.flag {
				b = append(b, `{"found":true}`...)
			} else {
				b = append(b, '{', '}')
			}
		case OpDelete:
			if a.flag {
				b = append(b, `{"deleted":true}`...)
			} else {
				b = append(b, '{', '}')
			}
		case OpInsert:
			if a.flag {
				b = append(b, `{"ok":true}`...)
			} else {
				b = append(b, '{', '}')
			}
		default: // window, knn
			if len(a.pts) == 0 {
				b = append(b, '{', '}')
				break
			}
			b = append(b, `{"count":`...)
			b = strconv.AppendInt(b, int64(len(a.pts)), 10)
			b = append(b, `,"points":[`...)
			for j, p := range a.pts {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"x":`...)
				b = appendJSONFloat(b, p.X)
				b = append(b, `,"y":`...)
				b = appendJSONFloat(b, p.Y)
				b = append(b, '}')
			}
			b = append(b, ']', '}')
		}
	}
	b = appendTraceJSON(append(b, ']'), tj)
	return append(b, '}', '\n')
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
	b = append(b, `{"count":`...)
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
	b = appendTraceJSON(append(b, ']'), tj)
	return append(b, '}', '\n')
}
