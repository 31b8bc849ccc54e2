package wire

// rsmibin/1 — the length-prefixed binary wire protocol served alongside
// JSON. At 1M points JSON encode/decode of ~100 result points per window
// dominates per-request cost (EXPERIMENTS.md "Serving"); this encoding
// makes the wire as cheap as the engine while JSON stays the debuggable
// default.
//
// Negotiation is per-request: a body with Content-Type
// "application/x-rsmibin" is decoded as binary, and a request whose
// Accept header names that type is answered in binary. The two are
// independent, so mixed pairs (JSON request, binary response) work, and
// JSON and binary clients share one server. Errors (non-2xx) are always
// JSON ErrorResponse, whatever the Accept header says — error paths are
// rare and debuggability wins there.
//
// # Framing
//
// Every frame starts with a 3-byte header: magic 'R','B' plus a version
// byte (1). Multi-byte integers are little-endian; counts and k are
// uvarints; coordinates are fixed-width float64 bit patterns — the same
// point encoding as the internal/dataset point files, grown a header and
// varint lengths.
//
//	request  (per-op)    header, entry
//	request  (/v1/batch) header, uvarint n, n × entry
//	entry                op byte, payload
//	  point|insert|delete  x f64, y f64
//	  window               minX f64, minY f64, maxX f64, maxY f64
//	  knn                  x f64, y f64, uvarint k
//	  sql                  uvarint len, query bytes
//	  sub                  uvarint id, kind byte, window rect | knn x y k
//	  unsub                uvarint id
//	response (per-op)    header, result [, trace]
//	response (/v1/batch) header, uvarint n, n × result [, trace]
//	result               tag byte, payload
//	  bool                 1 byte (0|1)    — found / ok / deleted, by op
//	  points               uvarint n, n × (x f64, y f64)
//	  trace                EXPLAIN record, see appendBinTrace
//
// The high bit of an entry's op byte (binOpExplain) requests an EXPLAIN
// trace: the response then carries one trace result after its results.
// The bit is a per-request flag — set on any entry, it covers the whole
// frame — and masked off before op dispatch, so version 1 framing is
// unchanged for everyone who does not set it.
//
// # Zero-copy batch responses
//
// Batch answers are encoded straight from the engine's []geom.Point into
// the caller's buffer (the server's pooled response buffer): no per-point
// wire structs, no per-result slices, O(1) allocations per batch whatever
// the batch size (asserted by TestBatchBinaryEncodeAllocs).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rsmi/internal/geom"
)

// ContentTypeBinary is the media type that selects rsmibin/1; JSON is
// served for everything else.
const ContentTypeBinary = "application/x-rsmibin"

// BinVersion is the rsmibin protocol version carried in every frame
// header.
const BinVersion = 1

// binMagic starts every rsmibin frame.
var binMagic = [2]byte{'R', 'B'}

// Op bytes of request entries, each the index of its op's table row.
const (
	binOpPoint byte = iota + 1
	binOpWindow
	binOpKNN
	binOpInsert
	binOpDelete
	binOpSQL
	// binOpSub / binOpUnsub register and remove standing queries. They
	// are only meaningful on the stream transport (the push channel the
	// notifications ride back on), and only as single-op frames — the
	// server rejects them over HTTP and inside multi-op batches.
	binOpSub
	binOpUnsub
)

// Subscription kind bytes inside a binOpSub entry (the wire form of
// sub.KindWindow / sub.KindKNN).
const (
	binSubWindow byte = 1
	binSubKNN    byte = 2
)

// binOpExplain is the op-byte flag bit requesting an inline EXPLAIN
// trace in the response. Op bytes stay below 0x80, so the bit never
// collides with an op kind.
const binOpExplain byte = 0x80

// Result tags.
const (
	binResBool byte = iota + 1
	binResPoints
	binResTrace
)

// binMaxK bounds the kNN parameter on the wire; it exists so a malformed
// uvarint cannot turn into an absurd allocation, not as an API limit.
const binMaxK = 1 << 20

// maxBatchOps bounds the operations one batch request may carry, in
// either codec.
const maxBatchOps = 16384

// errTooManyOps refuses a JSON batch of more than maxBatchOps ops.
var errTooManyOps = fmt.Errorf("batch exceeds %d ops", maxBatchOps)

// ErrMismatch marks a well-formed answer that does not fit the ops it
// answers: another result count, or a result of the other kind. It fails
// that call alone; a stream that read the frame is still in step.
var ErrMismatch = errors.New("client: answer does not fit its ops")

// errResultKind reports an answer whose result kind — points or a flag —
// is not the kind its op answers with.
var errResultKind = fmt.Errorf("%w: result kind does not match op", ErrMismatch)

// Result is one executed op's answer: the flag of a point, insert,
// delete, sub or unsub, or the points of a window, kNN or sql. The server
// encodes it straight from the engine's points — referenced, not copied,
// so no per-result allocation — and the decoders read answers into it.
type Result struct {
	Op   string
	Flag bool
	Pts  []geom.Point
}

// ---- Encoding (append-style, allocation-free on a warm buffer) ----

// appendBinHeader starts a frame.
func appendBinHeader(b []byte) []byte {
	return append(b, binMagic[0], binMagic[1], BinVersion)
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// appendF64 appends one coordinate as a little-endian float64 bit
// pattern (the internal/dataset point encoding).
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendStr appends s as its uvarint length and its bytes.
func appendStr(b []byte, s string) []byte { return append(appendUvarint(b, uint64(len(s))), s...) }

// appendOp appends one request entry: the op byte, then the fields of
// its shape.
func appendOp(b []byte, op BatchOp) ([]byte, error) {
	k := Row(op.Op)
	if k == 0 {
		return b, fmt.Errorf("rsmibin: unknown op %q", op.Op)
	}
	b = appendFields(append(b, k), table[k].Req, &op)
	if k != binOpSub {
		return b, nil
	}
	switch op.SubKind {
	case SubWindow:
		return appendFields(append(b, binSubWindow), ReqRect, &op), nil
	case SubKNN:
		return appendFields(append(b, binSubKNN), ReqKNN, &op), nil
	}
	return b, fmt.Errorf("rsmibin: unknown subscription kind %q", op.SubKind)
}

// appendFields appends op's fields of shape in the order the JSON codec
// keys them: a coordinate as f64, k and sub_id as uvarints, a string as
// its uvarint length and bytes.
func appendFields(b []byte, shape Shape, op *BatchOp) []byte {
	for _, k := range jsonRequestKeys[shape] {
		switch f := requestField(op, k).(type) {
		case *float64:
			b = appendF64(b, *f)
		case *int:
			// Clamp negative k to 0 rather than letting the uint64
			// conversion wrap: the engine defines k <= 0 as an empty
			// answer, and the JSON path passes it through, so the
			// protocols must agree on the same input.
			b = appendUvarint(b, uint64(max(*f, 0)))
		case *uint64:
			b = appendUvarint(b, *f)
		case *string:
			b = appendStr(b, *f)
		}
	}
	return b
}

// AppendOps appends a request frame to b: one entry for the per-op
// endpoints (single), a counted list for /v1/batch and the stream, with
// the explain flag bit set on the first entry's op byte on request.
func AppendOps(b []byte, ops []BatchOp, single, explain bool) ([]byte, error) {
	start := len(b)
	b = appendBinHeader(b)
	if !single {
		b = appendUvarint(b, uint64(len(ops)))
	}
	var err error
	for i, op := range ops {
		at := len(b)
		if b, err = appendOp(b, op); err != nil {
			return b[:start], err
		}
		if explain && i == 0 {
			b[at] |= binOpExplain
		}
	}
	return b, nil
}

// appendBinTrace appends an EXPLAIN trace result after a response's
// results; tj == nil appends nothing (the common, non-EXPLAIN case).
//
//	trace  tag byte (binResTrace), uvarint id,
//	       uvarint len, backend bytes,
//	       uvarint shards, uvarint accesses, uvarint reserved (0),
//	       uvarint n, n × (uvarint len, stage-name bytes, us f64),
//	       uvarint plan-backend len (0 = no plan)
//	       [, plan-backend bytes, est µs f64, actual µs f64, est rows f64]
//
// The reserved slot carried the request coalescer's batch size until the
// coalescer was removed. It is written as 0 and skipped on read so that
// rsmibin/1 does not move a byte: older clients and servers interoperate
// with newer ones (TestBinTraceGoldenBytes).
func appendBinTrace(b []byte, tj *TraceJSON) []byte {
	if tj == nil {
		return b
	}
	b = append(b, binResTrace)
	b = appendUvarint(b, tj.ID)
	b = appendStr(b, tj.Backend)
	b = appendUvarint(b, uint64(tj.ShardsVisited))
	b = appendUvarint(b, uint64(tj.BlockAccesses))
	b = appendUvarint(b, 0) // reserved
	b = appendUvarint(b, uint64(len(tj.Stages)))
	for _, st := range tj.Stages {
		b = appendF64(appendStr(b, st.Stage), st.Us)
	}
	if tj.Plan == nil {
		return appendUvarint(b, 0)
	}
	b = appendStr(b, tj.Plan.Backend)
	b = appendF64(b, tj.Plan.EstCostUS)
	b = appendF64(b, tj.Plan.ActualCostUS)
	b = appendF64(b, tj.Plan.EstRows)
	return b
}

// appendAnswer encodes one executed answer as its op's result kind: a
// points result straight from the engine's points, no intermediate wire
// structs, or a bool.
func appendAnswer(b []byte, a Result) []byte {
	if !pointsResult(a.Op) {
		if a.Flag {
			return append(b, binResBool, 1)
		}
		return append(b, binResBool, 0)
	}
	b = appendUvarint(append(b, binResPoints), uint64(len(a.Pts)))
	for _, p := range a.Pts {
		b = appendF64(appendF64(b, p.X), p.Y)
	}
	return b
}

// AppendAnswers appends a response frame: the header, one result for the
// per-op endpoints (single) or a counted list for /v1/batch and the
// stream, then the EXPLAIN trace when tj is set.
//
//rsmi:noalloc
func AppendAnswers(b []byte, answers []Result, single bool, tj *TraceJSON) []byte {
	b = appendBinHeader(b)
	if single {
		return appendBinTrace(appendAnswer(b, answers[0]), tj)
	}
	b = appendUvarint(b, uint64(len(answers)))
	for _, a := range answers {
		b = appendAnswer(b, a)
	}
	return appendBinTrace(b, tj)
}

// BatchResult is r in the JSON wire shape, which the client's Batch verb
// returns whatever the protocol: the field its op's answer member names.
func (r Result) BatchResult() BatchResult {
	switch table[Row(r.Op)].Flag {
	case "found":
		return BatchResult{Found: r.Flag}
	case "ok":
		return BatchResult{OK: r.Flag}
	case "deleted":
		return BatchResult{Deleted: r.Flag}
	}
	pts := make([]PointJSON, len(r.Pts))
	for i, p := range r.Pts {
		pts[i] = PointJSON{X: p.X, Y: p.Y}
	}
	return BatchResult{Count: len(pts), Points: pts}
}

// ---- Decoding ----

// errBinTruncated reports a frame shorter than its own lengths claim.
var errBinTruncated = errors.New("rsmibin: truncated frame")

// binReader is a bounds-checked cursor over one frame. Every getter
// degrades to zero values once err is set, so decode loops stay simple
// and malformed frames can only ever produce an error, never a panic or
// an oversized allocation.
type binReader struct {
	data []byte
	err  error
	// explain accumulates the explain flag bit across decoded entries:
	// it is a request-level flag, whichever entry carries it.
	explain bool
}

func (r *binReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data) {
		r.fail(errBinTruncated)
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *binReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail(errors.New("rsmibin: bad uvarint"))
		return 0
	}
	r.data = r.data[n:]
	return v
}

// count reads a uvarint count of items of at least size bytes each,
// failing on one the rest of the frame cannot hold — dividing, not
// multiplying, so a huge count cannot wrap past the bound into an
// absurd allocation.
func (r *binReader) count(size uint64) uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.data))/size {
		r.fail(errBinTruncated)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// str reads a string written by appendStr.
func (r *binReader) str() string { return string(r.take(int(r.count(1)))) }

// header consumes and validates the frame header.
func (r *binReader) header() {
	b := r.take(3)
	if b == nil {
		return
	}
	if b[0] != binMagic[0] || b[1] != binMagic[1] {
		r.fail(errors.New("rsmibin: bad magic"))
		return
	}
	if b[2] != BinVersion {
		r.fail(fmt.Errorf("rsmibin: unsupported version %d", b[2]))
	}
}

// entry decodes one request entry, stripping (and recording) the
// explain flag bit. On error the op is garbage and r.err is set.
func (r *binReader) entry() BatchOp {
	k := r.byte()
	if r.err != nil {
		return BatchOp{}
	}
	if k&binOpExplain != 0 {
		r.explain = true
		k &^= binOpExplain
	}
	if k == 0 || int(k) >= len(table) {
		r.fail(fmt.Errorf("rsmibin: unknown op byte 0x%02x", k))
		return BatchOp{}
	}
	op := BatchOp{Op: table[k].Op}
	r.fields(table[k].Req, &op)
	if k != binOpSub {
		return op
	}
	switch sk := r.byte(); sk {
	case binSubWindow:
		op.SubKind = SubWindow
		r.fields(ReqRect, &op)
	case binSubKNN:
		op.SubKind = SubKNN
		r.fields(ReqKNN, &op)
	default:
		r.fail(fmt.Errorf("rsmibin: unknown subscription kind byte 0x%02x", sk))
	}
	return op
}

// fields decodes op's fields of shape, the twin of appendFields.
func (r *binReader) fields(shape Shape, op *BatchOp) {
	for _, k := range jsonRequestKeys[shape] {
		switch f := requestField(op, k).(type) {
		case *float64:
			*f = r.f64()
		case *int:
			if n := r.uvarint(); n > binMaxK {
				r.fail(fmt.Errorf("rsmibin: k %d exceeds %d", n, binMaxK))
			} else {
				*f = int(n)
			}
		case *uint64:
			*f = r.uvarint()
		case *string:
			*f = r.str()
		}
	}
}

// binMinEntryBytes is the smallest possible entry (an op byte plus a
// zero-length SQL query's length uvarint — coordinate entries are 17+
// bytes), used to reject counts a frame cannot possibly hold before
// allocating.
const binMinEntryBytes = 2

// DecodeOps parses a request frame: exactly one entry for the per-op
// endpoints (single), a counted list for /v1/batch and the stream,
// refusing a batch of more than maxBatchOps ops. The second return
// reports whether any entry carried the explain flag bit.
func DecodeOps(data []byte, single bool) ([]BatchOp, bool, error) {
	r := &binReader{data: data}
	r.header()
	n := uint64(1)
	if !single {
		n = r.uvarint()
		if r.err == nil && n > uint64(maxBatchOps) {
			return nil, false, fmt.Errorf("rsmibin: batch exceeds %d ops", maxBatchOps)
		}
		if r.err == nil && n*binMinEntryBytes > uint64(len(r.data)) {
			return nil, false, errBinTruncated
		}
	}
	if r.err != nil {
		return nil, false, r.err
	}
	ops := make([]BatchOp, 0, n)
	for i := uint64(0); i < n; i++ {
		op := r.entry()
		if r.err != nil {
			return nil, false, r.err
		}
		ops = append(ops, op)
	}
	if len(r.data) != 0 {
		return nil, false, errors.New("rsmibin: trailing bytes after frame")
	}
	return ops, r.explain, nil
}

// result decodes one response result, the answer to op.
func (r *binReader) result(op string) Result {
	tag := r.byte()
	if r.err != nil {
		return Result{}
	}
	switch tag {
	case binResBool:
		if pointsResult(op) {
			r.fail(errResultKind)
			return Result{}
		}
		return Result{Op: op, Flag: r.byte() != 0}
	case binResPoints:
		if !pointsResult(op) {
			r.fail(errResultKind)
			return Result{}
		}
		n := r.count(16)
		if r.err != nil {
			return Result{}
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.f64(), r.f64())
		}
		return Result{Op: op, Pts: pts}
	default:
		r.fail(fmt.Errorf("rsmibin: unknown result tag 0x%02x", tag))
		return Result{}
	}
}

// trace decodes one EXPLAIN trace result (the caller has seen the
// binResTrace tag coming).
func (r *binReader) trace() *TraceJSON {
	r.byte() // binResTrace
	tj := &TraceJSON{ID: r.uvarint(), Backend: r.str()}
	tj.ShardsVisited = int64(r.uvarint())
	tj.BlockAccesses = int64(r.uvarint())
	r.uvarint()     // reserved (a pre-removal server's coalesce batch size)
	n := r.count(9) // a stage: at least a length, an empty name and an f64
	if r.err != nil {
		return nil
	}
	tj.Stages = make([]TraceStageJSON, 0, n)
	for i := uint64(0); i < n; i++ {
		tj.Stages = append(tj.Stages, TraceStageJSON{Stage: r.str(), Us: r.f64()})
	}
	if backend := r.str(); backend != "" {
		tj.Plan = &PlanJSON{Backend: backend, EstCostUS: r.f64(), ActualCostUS: r.f64(), EstRows: r.f64()}
	}
	if r.err != nil {
		return nil
	}
	return tj
}

// DecodeResults parses a response frame to ops: one result for the
// per-op endpoints (single), a counted list for /v1/batch and the stream,
// then an optional trailing EXPLAIN trace. There must be one result per
// op, each of its op's kind.
func DecodeResults(data []byte, single bool, ops []BatchOp) ([]Result, *TraceJSON, error) {
	r := &binReader{data: data}
	r.header()
	n := uint64(1)
	if !single {
		n = r.count(2) // tag and bool, or tag and a zero count
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if n != uint64(len(ops)) {
		return nil, nil, fmt.Errorf("%w: %d results for %d ops", ErrMismatch, n, len(ops))
	}
	out := make([]Result, 0, n)
	for _, op := range ops {
		res := r.result(op.Op)
		if r.err != nil {
			return nil, nil, r.err
		}
		out = append(out, res)
	}
	var tj *TraceJSON
	if r.err == nil && len(r.data) > 0 && r.data[0] == binResTrace {
		tj = r.trace()
		if r.err != nil {
			return nil, nil, r.err
		}
	}
	if len(r.data) != 0 {
		return nil, nil, errors.New("rsmibin: trailing bytes after frame")
	}
	return out, tj, nil
}
