package server

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
// a pooled response buffer: no per-point wire structs, no per-result
// slices, O(1) allocations per batch whatever the batch size (asserted
// by TestBatchBinaryEncodeAllocs). This closes the ROADMAP "Zero-copy
// batch responses" item for the binary path.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"

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

// Op bytes of request entries, each the index of its op's opTable row.
const (
	binOpPoint byte = iota + 1
	binOpWindow
	binOpKNN
	binOpInsert
	binOpDelete
	binOpSQL
	// binOpSub / binOpUnsub register and remove standing queries. They
	// are only meaningful on the stream transport (the push channel the
	// notifications ride back on), and only as single-op frames — HTTP
	// and multi-op batches reject them in validateOps.
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

// isBinaryRequest reports whether the request body is an rsmibin frame.
func isBinaryRequest(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary)
}

// wantsBinaryResponse reports whether the client asked for an rsmibin
// answer.
func wantsBinaryResponse(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeBinary)
}

// ---- Encoding (append-style, allocation-free on a warm buffer) ----

// appendBinHeader starts a frame.
//
//rsmi:noalloc
func appendBinHeader(b []byte) []byte {
	return append(b, binMagic[0], binMagic[1], BinVersion)
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	var s [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(s[:], v)
	return append(b, s[:n]...)
}

// appendF64 appends one coordinate as a little-endian float64 bit
// pattern (the internal/dataset point encoding).
func appendF64(b []byte, v float64) []byte {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], math.Float64bits(v))
	return append(b, s[:]...)
}

// appendOp appends one request entry: the op byte, then the fields of
// its shape.
func appendOp(b []byte, op BatchOp) ([]byte, error) {
	k := opRow(op.Op)
	if k == 0 {
		return b, fmt.Errorf("rsmibin: unknown op %q", op.Op)
	}
	b = appendFields(append(b, k), opTable[k].req, &op)
	if k != binOpSub {
		return b, nil
	}
	switch op.SubKind {
	case SubWindow:
		return appendFields(append(b, binSubWindow), reqRect, &op), nil
	case SubKNN:
		return appendFields(append(b, binSubKNN), reqKNN, &op), nil
	}
	return b, fmt.Errorf("rsmibin: unknown subscription kind %q", op.SubKind)
}

// appendFields appends op's fields of shape in the order the JSON codec
// keys them: a coordinate as f64, k and sub_id as uvarints, a string as
// its uvarint length and bytes.
func appendFields(b []byte, shape reqShape, op *BatchOp) []byte {
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
			b = append(appendUvarint(b, uint64(len(*f))), *f...)
		}
	}
	return b
}

// appendBinaryOps appends a request frame to b: one entry for the per-op
// endpoints (single), a counted list for /v1/batch and the stream, with
// the explain flag bit set on the first entry's op byte on request.
func appendBinaryOps(b []byte, ops []BatchOp, single, explain bool) ([]byte, error) {
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

// encodeBinaryOps is appendBinaryOps into a fresh buffer (an HTTP request
// body, which the transport owns until the response arrives).
func encodeBinaryOps(ops []BatchOp, single, explain bool) ([]byte, error) {
	return appendBinaryOps(make([]byte, 0, 16+24*len(ops)), ops, single, explain)
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
	b = appendUvarint(b, uint64(len(tj.Backend)))
	b = append(b, tj.Backend...)
	b = appendUvarint(b, uint64(tj.ShardsVisited))
	b = appendUvarint(b, uint64(tj.BlockAccesses))
	b = appendUvarint(b, 0) // reserved
	b = appendUvarint(b, uint64(len(tj.Stages)))
	for _, st := range tj.Stages {
		b = appendUvarint(b, uint64(len(st.Stage)))
		b = append(b, st.Stage...)
		b = appendF64(b, st.Us)
	}
	if tj.Plan == nil {
		return appendUvarint(b, 0)
	}
	b = appendUvarint(b, uint64(len(tj.Plan.Backend)))
	b = append(b, tj.Plan.Backend...)
	b = appendF64(b, tj.Plan.EstCostUS)
	b = appendF64(b, tj.Plan.ActualCostUS)
	b = appendF64(b, tj.Plan.EstRows)
	return b
}

// appendBoolResult appends a bool result.
func appendBoolResult(b []byte, v bool) []byte {
	b = append(b, binResBool)
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendPointsResult appends a points result straight from engine points
// — no intermediate wire structs.
func appendPointsResult(b []byte, pts []geom.Point) []byte {
	b = append(b, binResPoints)
	b = appendUvarint(b, uint64(len(pts)))
	for _, p := range pts {
		b = appendF64(b, p.X)
		b = appendF64(b, p.Y)
	}
	return b
}

// batchAnswer is one executed batch operation before response encoding:
// the engine's points are referenced, not copied, so the binary path can
// encode them into the pooled buffer with no per-result allocation.
type batchAnswer struct {
	op   string
	flag bool
	pts  []geom.Point
}

// appendAnswer encodes one executed answer as its op's result kind.
func appendAnswer(b []byte, a batchAnswer) []byte {
	if pointsResult(a.op) {
		return appendPointsResult(b, a.pts)
	}
	return appendBoolResult(b, a.flag)
}

// appendBatchAnswers encodes a whole batch response body (everything
// after the frame header).
//
//rsmi:noalloc
func appendBatchAnswers(b []byte, answers []batchAnswer) []byte {
	b = appendUvarint(b, uint64(len(answers)))
	for _, a := range answers {
		b = appendAnswer(b, a)
	}
	return b
}

// batchResultOf is one op's answer in the JSON wire shape, which the
// client's Batch verb returns whatever the protocol: the field its op's
// answer member names.
func batchResultOf(op string, flag bool, pts []geom.Point) BatchResult {
	switch opTable[opRow(op)].flag {
	case "found":
		return BatchResult{Found: flag}
	case "ok":
		return BatchResult{OK: flag}
	case "deleted":
		return BatchResult{Deleted: flag}
	}
	return BatchResult{Count: len(pts), Points: toPoints(pts)}
}

// binBufPool recycles response buffers so batch responses are encoded
// with O(1) allocations regardless of batch and result sizes.
var binBufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// binBufPoolMax caps the capacity a buffer may keep when returned to
// the pool: one huge batch response must not pin its memory forever.
const binBufPoolMax = 1 << 20

// readPooled reads r whole into a buffer from binBufPool: a request body
// on the server, an answer on the client. Hand the buffer back with
// putPooled once nothing references the bytes.
func readPooled(r io.Reader) (*[]byte, []byte, error) {
	bp := binBufPool.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(r)
	return bp, buf.Bytes(), err
}

// putPooled returns bp to binBufPool holding b, a buffer grown from it,
// unless b has outgrown binBufPoolMax.
func putPooled(bp *[]byte, b []byte) {
	if cap(b) <= binBufPoolMax {
		*bp = b[:0] // keep the grown capacity for the next use
		binBufPool.Put(bp)
	}
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
	if k == 0 || int(k) >= len(opTable) {
		r.fail(fmt.Errorf("rsmibin: unknown op byte 0x%02x", k))
		return BatchOp{}
	}
	op := BatchOp{Op: opTable[k].op}
	r.fields(opTable[k].req, &op)
	if k != binOpSub {
		return op
	}
	switch sk := r.byte(); sk {
	case binSubWindow:
		op.SubKind = SubWindow
		r.fields(reqRect, &op)
	case binSubKNN:
		op.SubKind = SubKNN
		r.fields(reqKNN, &op)
	default:
		r.fail(fmt.Errorf("rsmibin: unknown subscription kind byte 0x%02x", sk))
	}
	return op
}

// fields decodes op's fields of shape, the twin of appendFields.
func (r *binReader) fields(shape reqShape, op *BatchOp) {
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
			n := r.uvarint()
			if r.err == nil && n > uint64(len(r.data)) {
				r.fail(errBinTruncated)
			}
			*f = string(r.take(int(n)))
		}
	}
}

// binMinEntryBytes is the smallest possible entry (an op byte plus a
// zero-length SQL query's length uvarint — coordinate entries are 17+
// bytes), used to reject counts a frame cannot possibly hold before
// allocating.
const binMinEntryBytes = 2

// decodeBinaryOps parses a request frame: exactly one entry for the
// per-op endpoints (single), a counted list for /v1/batch. The second
// return reports whether any entry carried the explain flag bit.
func decodeBinaryOps(data []byte, single bool) ([]BatchOp, bool, error) {
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

// binResult is one decoded response result.
type binResult struct {
	tag  byte
	flag bool
	pts  []geom.Point
}

// result decodes one response result.
func (r *binReader) result() binResult {
	tag := r.byte()
	if r.err != nil {
		return binResult{}
	}
	switch tag {
	case binResBool:
		return binResult{tag: tag, flag: r.byte() != 0}
	case binResPoints:
		n := r.uvarint()
		// Divide, don't multiply: n*16 could wrap uint64 and slip past
		// the bound into a makeslice panic.
		if r.err == nil && n > uint64(len(r.data))/16 {
			r.fail(errBinTruncated)
		}
		if r.err != nil {
			return binResult{}
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.f64(), r.f64())
		}
		return binResult{tag: tag, pts: pts}
	default:
		r.fail(fmt.Errorf("rsmibin: unknown result tag 0x%02x", tag))
		return binResult{}
	}
}

// trace decodes one EXPLAIN trace result (the caller has seen the
// binResTrace tag coming).
func (r *binReader) trace() *TraceJSON {
	r.byte() // binResTrace
	tj := &TraceJSON{ID: r.uvarint()}
	bl := r.uvarint()
	if r.err == nil && bl > uint64(len(r.data)) {
		r.fail(errBinTruncated)
	}
	if r.err != nil {
		return nil
	}
	tj.Backend = string(r.take(int(bl)))
	tj.ShardsVisited = int64(r.uvarint())
	tj.BlockAccesses = int64(r.uvarint())
	r.uvarint() // reserved (a pre-removal server's coalesce batch size)
	n := r.uvarint()
	// A stage is at least 9 bytes (len + empty name + f64); divide so a
	// malformed count cannot wrap into a huge allocation.
	if r.err == nil && n > uint64(len(r.data))/9 {
		r.fail(errBinTruncated)
	}
	if r.err != nil {
		return nil
	}
	tj.Stages = make([]TraceStageJSON, 0, n)
	for i := uint64(0); i < n; i++ {
		sl := r.uvarint()
		if r.err == nil && sl > uint64(len(r.data)) {
			r.fail(errBinTruncated)
		}
		if r.err != nil {
			return nil
		}
		name := string(r.take(int(sl)))
		tj.Stages = append(tj.Stages, TraceStageJSON{Stage: name, Us: r.f64()})
	}
	if pl := r.uvarint(); r.err == nil && pl > 0 {
		if pl > uint64(len(r.data)) {
			r.fail(errBinTruncated)
			return nil
		}
		p := &PlanJSON{Backend: string(r.take(int(pl)))}
		p.EstCostUS = r.f64()
		p.ActualCostUS = r.f64()
		p.EstRows = r.f64()
		tj.Plan = p
	}
	if r.err != nil {
		return nil
	}
	return tj
}

// decodeBinaryResults parses a response frame: one result for the per-op
// endpoints (single), a counted list for /v1/batch, then an optional
// trailing EXPLAIN trace.
func decodeBinaryResults(data []byte, single bool) ([]binResult, *TraceJSON, error) {
	r := &binReader{data: data}
	r.header()
	n := uint64(1)
	if !single {
		n = r.uvarint()
		// Each result is at least 2 bytes (tag + bool, or tag + 0-count);
		// divide rather than multiply so huge counts cannot wrap uint64.
		if r.err == nil && n > uint64(len(r.data))/2 {
			return nil, nil, errBinTruncated
		}
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	out := make([]binResult, 0, n)
	for i := uint64(0); i < n; i++ {
		res := r.result()
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
