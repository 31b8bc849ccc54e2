package server

// The one request pipeline. Every data-plane request — HTTP+JSON,
// HTTP+rsmibin, or an rsmistream frame — is carried by a thin adapter
// (an exchange) through the same five steps:
//
//	admit → decode to []BatchOp → validateOps → execute → encode from []batchAnswer
//
// with one trace bracket and one set of stage marks. The adapters own
// only what differs between transports: where the request bytes come
// from, how an error is framed, and how the answers are framed. Adding
// an op is one route-table row, one validateOps case, one executeSingle
// case and one codec entry.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/obs"
	"rsmi/internal/plan"
	"rsmi/internal/shard"
	"rsmi/internal/sqlfe"
)

// reqShape and respShape name the historical JSON documents of the
// data endpoints; the rsmibin codec needs neither (its entries and
// results are self-describing).
type reqShape uint8

const (
	reqPoint reqShape = iota // PointJSON
	reqRect                  // RectJSON
	reqKNN                   // KNNJSON
	reqSQL                   // SQLRequest
	reqBatch                 // BatchRequest
)

type respShape uint8

const (
	respFound   respShape = iota // FoundResponse
	respOK                       // OKResponse
	respDeleted                  // DeletedResponse
	respPoints                   // PointsResponse
	respBatch                    // BatchResponse
)

// route is one data endpoint: its path, the single op it serves ("" for
// /v1/batch, which carries a list), and its JSON request and response
// documents. The server registers a handler per row and the JSON client
// encodes its requests from the same rows.
type route struct {
	path string
	op   string
	req  reqShape
	resp respShape
}

var routes = [...]route{
	{"/v1/point", OpPoint, reqPoint, respFound},
	{"/v1/window", OpWindow, reqRect, respPoints},
	{"/v1/knn", OpKNN, reqKNN, respPoints},
	{"/v1/insert", OpInsert, reqPoint, respOK},
	{"/v1/delete", OpDelete, reqPoint, respDeleted},
	{"/v1/sql", OpSQL, reqSQL, respPoints},
	{"/v1/batch", "", reqBatch, respBatch},
}

// routeFor returns the route serving path.
func routeFor(path string) *route {
	for i := range routes {
		if routes[i].path == path {
			return &routes[i]
		}
	}
	return nil
}

// requestJSON builds the route's request document from ops (the JSON
// client's encoder).
func (rt *route) requestJSON(ops []BatchOp) interface{} {
	switch op := ops[0]; rt.req {
	case reqPoint:
		return PointJSON{X: op.X, Y: op.Y}
	case reqRect:
		return RectJSON{MinX: op.MinX, MinY: op.MinY, MaxX: op.MaxX, MaxY: op.MaxY}
	case reqKNN:
		return KNNJSON{X: op.X, Y: op.Y, K: op.K}
	case reqSQL:
		return SQLRequest{Query: op.SQL}
	}
	return BatchRequest{Ops: ops}
}

// decodeJSON reads the route's request document into ops; a per-op
// endpoint's single op lands in one, so it costs no slice of its own.
func (rt *route) decodeJSON(body io.Reader, one *[1]BatchOp) ([]BatchOp, error) {
	dec := json.NewDecoder(body)
	op := &one[0]
	*op = BatchOp{Op: rt.op}
	var err error
	switch rt.req {
	case reqPoint:
		var v PointJSON
		err = dec.Decode(&v)
		op.X, op.Y = v.X, v.Y
	case reqRect:
		var v RectJSON
		err = dec.Decode(&v)
		op.MinX, op.MinY, op.MaxX, op.MaxY = v.MinX, v.MinY, v.MaxX, v.MaxY
	case reqKNN:
		var v KNNJSON
		err = dec.Decode(&v)
		op.X, op.Y, op.K = v.X, v.Y, v.K
	case reqSQL:
		var v SQLRequest
		err = dec.Decode(&v)
		op.SQL = v.Query
	default:
		var v BatchRequest
		err = dec.Decode(&v)
		return v.Ops, err
	}
	return one[:], err
}

// responseJSON builds a bool route's response document, the three small
// ones that go through encoding/json's reflective path; the documents
// that carry points are streamed (jsonstream.go), trace or no trace.
func (rt *route) responseJSON(a batchAnswer, tj *TraceJSON) interface{} {
	switch rt.resp {
	case respOK:
		return OKResponse{OK: a.flag, Trace: tj}
	case respDeleted:
		return DeletedResponse{Deleted: a.flag, Trace: tj}
	}
	return FoundResponse{Found: a.flag, Trace: tj}
}

// exchange is one request's transport adapter: the pipeline pulls the
// decoded ops out of it and pushes either an error or the answers back.
type exchange interface {
	// decode parses the request. single reports the per-op wire shape —
	// a per-op HTTP endpoint or a one-op stream frame — as opposed to a
	// batch; explain reports the rsmibin explain flag bit.
	decode() (ops []BatchOp, single, explain bool, err error)
	// fail answers an error, code in HTTP status semantics.
	fail(code int, msg string)
	// reply encodes the answers, with the EXPLAIN trace when tj != nil.
	reply(answers []batchAnswer, tj *TraceJSON)
	// mem is the exchange's scratch; it stays valid until reply returns.
	mem() *scratch
}

// scratch is the per-request memory a pooled exchange lends the
// pipeline: a single-op request's answer slice and a window's result
// points live here, so neither is allocated per request. That is sound
// because the goroutine that queried is the one that encodes — reply has
// copied the points onto the wire before the exchange is recycled.
type scratch struct {
	answer [1]batchAnswer
	pts    []geom.Point
}

// scratchMaxPoints caps the point capacity an exchange keeps across
// requests (1 MiB of points, as binBufPoolMax caps response buffers):
// one huge window must not pin its memory forever.
const scratchMaxPoints = 1 << 16

// recycled returns a zeroed scratch that keeps sc's point buffer.
func (sc *scratch) recycled() scratch {
	if cap(sc.pts) > scratchMaxPoints {
		return scratch{}
	}
	return scratch{pts: sc.pts[:0]}
}

// errPostRequired is the one decode error that is not a 400.
var errPostRequired = errors.New("POST required")

// serve runs one request through the pipeline and completes its trace.
func (s *Server) serve(ctx context.Context, x exchange, t transportIdx, tr *obs.Trace) {
	s.cfg.Observer.Finish(s.pipeline(ctx, x, t, tr))
}

// pipeline is serve's body; it returns the trace to finish, which is a
// late-started one when the rsmibin explain bit asked for a trace the
// sampler had not started (its admission and decode spans are then
// absent: they were not measured). No deferred closures: the untraced
// path must not allocate for tracing.
func (s *Server) pipeline(ctx context.Context, x exchange, t transportIdx, tr *obs.Trace) *obs.Trace {
	if !s.admitSlot() {
		x.fail(http.StatusTooManyRequests, "server saturated; retry")
		return tr
	}
	defer s.releaseSlot()
	t1 := tr.MarkSince(tr.StartTime(), obs.StageAdmission)
	ops, single, explain, err := x.decode()
	if err == nil && len(ops) > maxBatchOps {
		err = fmt.Errorf("batch exceeds %d ops", maxBatchOps)
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errPostRequired) {
			code = http.StatusMethodNotAllowed
		}
		x.fail(code, err.Error())
		return tr
	}
	explain = explain || (tr != nil && tr.Explain)
	if explain && tr == nil {
		tr = s.newTrace("", t)
	}
	if tr != nil {
		tr.Explain = explain
		tr.Op = "batch"
		if single {
			tr.Op = ops[0].Op
		}
	}
	// Validate everything before executing anything.
	q, err := validateOps(ops, single, t)
	if err != nil {
		x.fail(http.StatusBadRequest, err.Error())
		return tr
	}
	tr.MarkSince(t1, obs.StageDecode)
	// The trace bracket: tr rides the engine context so the shard fan-out
	// can count shards visited, and collects the engine's block-access
	// delta.
	ctx = obs.With(ctx, tr)
	before := s.accessesIf(tr)
	var answers []batchAnswer
	if single {
		answers, err = s.executeSingle(ctx, ops[0], q, t, tr, x.mem())
	} else {
		answers, err = s.executeBatch(ctx, ops, t, tr)
	}
	tr.AddAccesses(s.accessesIf(tr) - before)
	if err != nil {
		x.fail(engineErrorCode(err), err.Error())
		return tr
	}
	var enc time.Time
	if tr != nil {
		enc = time.Now()
	}
	// An EXPLAIN answer carries the trace, so its encode span closes
	// before the snapshot; otherwise it closes after the write.
	var tj *TraceJSON
	if explain {
		tr.MarkSince(enc, obs.StageEncode)
		tj = traceJSON(tr)
	}
	x.reply(answers, tj)
	if !explain {
		tr.MarkSince(enc, obs.StageEncode)
	}
	return tr
}

// accessesIf reads the engine's block-access counter for a traced
// request; an untraced one does not pay for the read.
func (s *Server) accessesIf(tr *obs.Trace) int64 {
	if tr == nil {
		return 0
	}
	return s.eng.Accesses()
}

// newTrace starts a trace labelled with the serving backend.
func (s *Server) newTrace(op string, t transportIdx) *obs.Trace {
	tr := obs.StartTrace(op, transportIdxName[t])
	tr.Backend = s.eng.Name()
	return tr
}

// finite rejects NaN/Inf coordinates, which would corrupt shard routing.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return errors.New("coordinates must be finite")
		}
	}
	return nil
}

// opWindow returns op's window fields as a validated rectangle.
func opWindow(op BatchOp) (geom.Rect, error) {
	if err := finite(op.MinX, op.MinY, op.MaxX, op.MaxY); err != nil {
		return geom.Rect{}, err
	}
	if op.MinX > op.MaxX || op.MinY > op.MaxY {
		return geom.Rect{}, errors.New("window has min > max")
	}
	return geom.Rect{MinX: op.MinX, MinY: op.MinY, MaxX: op.MaxX, MaxY: op.MaxY}, nil
}

// validateOps checks every operation of a request before any executes,
// returning the first offending op's error. A sql op's statement is
// parsed here — its only parse — and the query returned for
// executeSingle. Errors name the op's index except on the per-op HTTP
// endpoints, whose bodies carry no list (a one-op stream frame is a
// list of one on the wire, and has always named index 0).
func validateOps(ops []BatchOp, single bool, t transportIdx) (plan.Query, error) {
	var q plan.Query
	for i, op := range ops {
		var err error
		switch op.Op {
		case OpPoint, OpKNN, OpInsert, OpDelete:
			err = finite(op.X, op.Y)
		case OpWindow:
			_, err = opWindow(op)
		case OpSQL:
			// A SQL statement is its own batch of work: it rides /v1/sql
			// or a single-op stream frame, never a multi-op batch.
			if len(ops) > 1 {
				err = errors.New("sql is not allowed inside a multi-op batch")
			} else {
				q, err = sqlfe.Parse(op.SQL)
			}
		case OpSub, OpUnsub:
			// Standing queries exist only as single-op stream frames: the
			// push channel is the connection itself, so there is nothing
			// for HTTP — or a multi-op batch — to subscribe. The registry
			// validates the subscription's shape when it executes.
			if !single || t != transportStream {
				err = errors.New("sub/unsub ride only single-op stream frames")
			}
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			if single && t == transportHTTP {
				return q, err
			}
			return q, fmt.Errorf("op %d: %v", i, err)
		}
	}
	return q, nil
}

// executeSingle runs one validated op as one engine call on the calling
// goroutine, under the request's own context, observing its per-op
// histogram in the calling transport's column. q is the parsed statement
// of a sql op; ctx carries tr (the pipeline attached it). The answer —
// and a window's points — live in sc until the exchange is recycled.
func (s *Server) executeSingle(ctx context.Context, op BatchOp, q plan.Query, t transportIdx, tr *obs.Trace, sc *scratch) ([]batchAnswer, error) {
	a := &sc.answer[0]
	*a = batchAnswer{op: op.Op}
	var (
		idx opIdx
		err error
	)
	start := time.Now()
	switch op.Op {
	case OpPoint:
		idx = opIdxPoint
		a.flag, err = s.eng.PointQueryContext(ctx, geom.Pt(op.X, op.Y))
	case OpWindow:
		idx = opIdxWindow
		sc.pts, err = s.eng.WindowQueryAppend(ctx, sc.pts[:0], geom.Rect{MinX: op.MinX, MinY: op.MinY, MaxX: op.MaxX, MaxY: op.MaxY})
		a.pts = sc.pts
	case OpKNN:
		idx = opIdxKNN
		a.pts, err = s.eng.KNNContext(ctx, geom.Pt(op.X, op.Y), op.K)
	case OpInsert:
		idx = opIdxInsert
		a.flag, err = s.write(ctx, op)
	case OpDelete:
		idx = opIdxDelete
		a.flag, err = s.write(ctx, op)
	case OpSQL:
		// executeSQL observes the plan and execute stages itself.
		res, serr := s.executeSQL(ctx, q, tr)
		if serr != nil {
			return nil, serr
		}
		a.pts = res.Points
		s.observeOp(opIdxSQL, t, time.Since(start))
		return sc.answer[:], nil
	case OpSub, OpUnsub:
		// Registry bookkeeping, not an engine operation: no histogram.
		if a.flag, err = s.serveSubOp(connSubsFrom(ctx), op); err != nil {
			return nil, err
		}
		return sc.answer[:], nil
	}
	if err != nil {
		return nil, err
	}
	d := time.Since(start)
	s.observeOp(idx, t, d)
	tr.ObserveStage(obs.StageExecute, d)
	return sc.answer[:], nil
}

// write applies one insert or delete, answering ok / deleted.
func (s *Server) write(ctx context.Context, op BatchOp) (bool, error) {
	if op.Op == OpInsert {
		err := s.eng.InsertContext(ctx, geom.Pt(op.X, op.Y))
		return err == nil, err
	}
	return s.eng.DeleteContext(ctx, geom.Pt(op.X, op.Y))
}

// executeBatch runs a validated heterogeneous operation list with one
// engine batch call per query kind: queries are grouped by kind, executed
// via the engine's Batch*Context calls (writes run individually, in
// request order relative to each other), and the answers are reassembled
// in request order. It observes the batch histogram of the calling
// transport and records the execute span.
//
// ctx is the request's context: a batch whose client disconnects or
// whose deadline passes stops between engine calls (and, on Sharded,
// between shard visits inside one) and returns the context's error —
// writes already applied stay applied, exactly as a batch interleaved
// with a concurrent writer's operations would. A batch is not a
// transaction: its queries may observe the batch's own writes or
// concurrent writers'.
func (s *Server) executeBatch(ctx context.Context, ops []BatchOp, t transportIdx, tr *obs.Trace) ([]batchAnswer, error) {
	start := time.Now()
	answers := make([]batchAnswer, len(ops))
	var (
		points   []geom.Point
		pointIdx []int
		windows  []geom.Rect
		winIdx   []int
		knns     []shard.KNNQuery
		knnIdx   []int
	)
	for i, op := range ops {
		answers[i].op = op.Op
		switch op.Op {
		case OpPoint:
			points = append(points, geom.Pt(op.X, op.Y))
			pointIdx = append(pointIdx, i)
		case OpWindow:
			windows = append(windows, geom.Rect{MinX: op.MinX, MinY: op.MinY, MaxX: op.MaxX, MaxY: op.MaxY})
			winIdx = append(winIdx, i)
		case OpKNN:
			knns = append(knns, shard.KNNQuery{Q: geom.Pt(op.X, op.Y), K: op.K})
			knnIdx = append(knnIdx, i)
		case OpInsert, OpDelete:
			flag, err := s.write(ctx, op)
			if err != nil {
				return nil, err
			}
			answers[i].flag = flag
		case OpSQL:
			// validateOps keeps SQL out of multi-op batches and single-op
			// SQL goes through executeSingle, so the only way here is a
			// one-op /v1/batch request — point it at /v1/sql.
			return nil, &StatusError{Code: http.StatusBadRequest, Msg: "sql is not served by /v1/batch; use /v1/sql"}
		}
	}
	if len(points) > 0 {
		found, err := s.eng.BatchPointQueryContext(ctx, points)
		if err != nil {
			return nil, err
		}
		for j, f := range found {
			answers[pointIdx[j]].flag = f
		}
	}
	if len(windows) > 0 {
		wins, err := s.eng.BatchWindowQueryContext(ctx, windows)
		if err != nil {
			return nil, err
		}
		for j, pts := range wins {
			answers[winIdx[j]].pts = pts
		}
	}
	if len(knns) > 0 {
		nns, err := s.eng.BatchKNNContext(ctx, knns)
		if err != nil {
			return nil, err
		}
		for j, pts := range nns {
			answers[knnIdx[j]].pts = pts
		}
	}
	d := time.Since(start)
	s.observeOp(opIdxBatch, t, d)
	tr.ObserveStage(obs.StageExecute, d)
	return answers, nil
}

// httpExchange adapts one HTTP request. The wire encodings negotiate
// per request and independently: a Content-Type of rsmibin selects the
// binary request decoder, an Accept naming it the binary response
// encoder; errors are always JSON.
type httpExchange struct {
	w   http.ResponseWriter
	r   *http.Request
	rt  *route
	one [1]BatchOp
	sc  scratch
}

// httpExchangePool recycles exchanges, so the adapter costs a per-op
// request no allocation the hand-inlined handlers did not pay.
var httpExchangePool = sync.Pool{New: func() interface{} { return new(httpExchange) }}

// handleRoute is the HTTP handler of one route-table row.
func (s *Server) handleRoute(rt *route) http.HandlerFunc {
	label := rt.op
	if label == "" {
		label = "batch"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tr, _ := s.startHTTPTrace(r, label)
		x := httpExchangePool.Get().(*httpExchange)
		x.w, x.r, x.rt = w, r, rt
		s.serve(r.Context(), x, transportHTTP, tr)
		*x = httpExchange{sc: x.sc.recycled()}
		httpExchangePool.Put(x)
	}
}

func (x *httpExchange) decode() ([]BatchOp, bool, bool, error) {
	single := x.rt.op != ""
	if x.r.Method != http.MethodPost {
		return nil, single, false, errPostRequired
	}
	limit := int64(maxBatchBodyBytes)
	if single {
		limit = maxBodyBytes
	}
	body := http.MaxBytesReader(x.w, x.r.Body, limit)
	if !isBinaryRequest(x.r) {
		ops, err := x.rt.decodeJSON(body, &x.one)
		if err != nil {
			err = fmt.Errorf("bad request body: %v", err)
		}
		return ops, single, false, err
	}
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, single, false, fmt.Errorf("bad request body: %v", err)
	}
	ops, explain, err := decodeBinaryOps(data, single)
	if err == nil && single && ops[0].Op != x.rt.op {
		err = fmt.Errorf("rsmibin: op %q sent to the %s endpoint", ops[0].Op, x.rt.op)
	}
	return ops, single, explain, err
}

func (x *httpExchange) mem() *scratch { return &x.sc }

func (x *httpExchange) fail(code int, msg string) {
	if code == http.StatusTooManyRequests {
		x.w.Header().Set("Retry-After", "1")
	}
	writeError(x.w, code, msg)
}

// reply encodes the engine's points straight into a pooled buffer on
// both encodings — no []PointJSON intermediates, O(1) allocations per
// answer whatever its size (jsonstream.go, binproto.go) — and the
// EXPLAIN bit does not change which encoder that is.
func (x *httpExchange) reply(answers []batchAnswer, tj *TraceJSON) {
	binary := wantsBinaryResponse(x.r)
	if !binary && x.rt.resp != respPoints && x.rt.resp != respBatch {
		writeJSON(x.w, x.rt.responseJSON(answers[0], tj))
		return
	}
	bp := binBufPool.Get().(*[]byte)
	b, contentType := (*bp)[:0], "application/json"
	if binary {
		b, contentType = appendBinHeader(b), ContentTypeBinary
	}
	switch single := x.rt.op != ""; {
	case binary && single:
		b = appendBinTrace(appendAnswer(b, answers[0]), tj)
	case binary:
		b = appendBinTrace(appendBatchAnswers(b, answers), tj)
	case single:
		b = appendPointsJSON(b, answers[0].pts, tj)
	default:
		b = appendBatchAnswersJSON(b, answers, tj)
	}
	x.w.Header().Set("Content-Type", contentType)
	_, _ = x.w.Write(b)
	if cap(b) <= binBufPoolMax {
		*bp = b[:0] // keep the grown capacity for the next response
		binBufPool.Put(bp)
	}
}
