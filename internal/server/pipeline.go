package server

// The one request pipeline. Every data-plane request — HTTP+JSON,
// HTTP+rsmibin, or an rsmistream frame — is carried by a thin adapter
// (an exchange) through the same five steps:
//
//	admit → decode to []BatchOp → validateOps → execute → encode from []batchAnswer
//
// with one trace bracket and one set of stage marks. The adapters own
// only what differs between transports: where the request bytes come
// from, how an error is framed, and how the answers are framed. Every
// per-op fact of the wire layer — name, rsmibin byte, HTTP path, request
// fields, answer kind, histogram row — is one row of opTable, so adding
// an op is one table row plus its executeOp case.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/obs"
	"rsmi/internal/plan"
	"rsmi/internal/sqlfe"
)

// reqShape names the fields an op's request carries: the keys of its
// historical JSON document (jsonRequestKeys), which the rsmibin entry
// codec walks too, in the same order.
type reqShape uint8

const (
	reqPoint reqShape = iota // PointJSON
	reqRect                  // RectJSON
	reqKNN                   // KNNJSON
	reqSQL                   // SQLRequest
	reqBatch                 // BatchRequest
	reqSubID                 // sub_id alone; rsmibin only
)

// opSpec is one row of the op table.
type opSpec struct {
	op   string   // BatchOp.Op, and the trace, /v1/stats and /metrics label
	path string   // the HTTP endpoint; "" for the stream-only sub and unsub
	req  reqShape // the request's fields
	flag string   // a bool answer's JSON member; "" for a points answer
}

// opTable holds each op at the index of its rsmibin op byte, which is also
// its latency histogram row. Row 0, a byte no entry carries, is
// /v1/batch. The server registers a handler per routed row and the client
// verbs find their endpoint here.
var opTable = [...]opSpec{
	batchRow:    {"batch", "/v1/batch", reqBatch, ""},
	binOpPoint:  {OpPoint, "/v1/point", reqPoint, "found"},
	binOpWindow: {OpWindow, "/v1/window", reqRect, ""},
	binOpKNN:    {OpKNN, "/v1/knn", reqKNN, ""},
	binOpInsert: {OpInsert, "/v1/insert", reqPoint, "ok"},
	binOpDelete: {OpDelete, "/v1/delete", reqPoint, "deleted"},
	binOpSQL:    {OpSQL, "/v1/sql", reqSQL, ""},
	// A sub entry follows its id with a kind byte and the fields of the
	// op of that kind (appendOp, binReader.entry).
	binOpSub:   {OpSub, "", reqSubID, "ok"},
	binOpUnsub: {OpUnsub, "", reqSubID, "ok"},
}

// batchRow is /v1/batch's row of opTable.
const batchRow = 0

// routes are the rows served over HTTP, which are also the rows with a
// latency histogram: every row before sub's.
var routes = opTable[:binOpSub]

// opRow returns the opTable row — the rsmibin op byte — of the op named
// name, 0 when no op has that name.
func opRow(name string) byte {
	for i := 1; i < len(opTable); i++ {
		if opTable[i].op == name {
			return byte(i)
		}
	}
	return 0
}

// pointsResult reports whether op answers with points (window, knn, sql)
// rather than a bool.
func pointsResult(op string) bool {
	row := opRow(op)
	return row != 0 && opTable[row].flag == ""
}

// exchange is one request's transport adapter: the pipeline pulls the
// decoded ops out of it and pushes either an error or the answers back.
type exchange interface {
	// decode parses the request, refusing a batch of more than
	// maxBatchOps ops. single reports the per-op wire shape — a per-op
	// HTTP endpoint or a one-op stream frame — as opposed to a batch;
	// explain reports the rsmibin explain flag bit.
	decode() (ops []BatchOp, single, explain bool, err error)
	// fail answers an error, code in HTTP status semantics.
	fail(code int, msg string)
	// reply encodes the answers, with the EXPLAIN trace when tj != nil.
	reply(answers []batchAnswer, tj *TraceJSON)
	// mem is the exchange's scratch; it stays valid until reply returns.
	mem() *scratch
}

// scratch is the per-request memory a pooled exchange lends the
// pipeline: a JSON request's decoded ops, a single-op request's answer
// slice and a window's result points live here, so none is allocated per
// request. That is sound because the goroutine that decoded and queried
// is the one that encodes — reply has copied the points onto the wire
// before the exchange is recycled.
type scratch struct {
	ops    []BatchOp
	answer [1]batchAnswer
	pts    []geom.Point
}

// scratchMaxPoints and scratchMaxOps cap the capacity an exchange keeps
// across requests (about 1 MiB each, as binBufPoolMax caps response
// buffers): one huge request must not pin its memory forever.
const (
	scratchMaxPoints = 1 << 16
	scratchMaxOps    = 1 << 13
)

// recycled returns a zeroed scratch that keeps sc's buffers, the ops
// cleared of the strings they referenced.
func (sc *scratch) recycled() scratch {
	var next scratch
	if cap(sc.pts) <= scratchMaxPoints {
		next.pts = sc.pts[:0]
	}
	if cap(sc.ops) <= scratchMaxOps {
		clear(sc.ops)
		next.ops = sc.ops[:0]
	}
	return next
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
		tr.Op = opTable[batchRow].op
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
	// The trace bracket: tr rides the engine context so the sharded
	// engine can count the shards it visits, and collects the engine's
	// block-access delta.
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
		switch opTable[opRow(op.Op)].req {
		case reqPoint, reqKNN:
			err = finite(op.X, op.Y)
		case reqRect:
			_, err = opWindow(op)
		case reqSQL:
			// A SQL statement is its own batch of work: it rides /v1/sql
			// or a single-op stream frame, never a multi-op batch.
			if len(ops) > 1 {
				err = errors.New("sql is not allowed inside a multi-op batch")
			} else {
				q, err = sqlfe.Parse(op.SQL)
			}
		case reqSubID:
			// Standing queries exist only as single-op stream frames: the
			// push channel is the connection itself, so there is nothing
			// for HTTP — or a multi-op batch — to subscribe. The registry
			// validates the subscription's shape when it executes.
			if !single || t != transportStream {
				err = errors.New("sub/unsub ride only single-op stream frames")
			}
		default: // row 0: no op has that name
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
	start := time.Now()
	switch op.Op {
	case OpSQL:
		// executeSQL observes the plan and execute stages itself.
		res, err := s.executeSQL(ctx, q, tr)
		if err != nil {
			return nil, err
		}
		*a = batchAnswer{op: op.Op, pts: res.Points}
		s.observeOp(binOpSQL, t, time.Since(start))
		return sc.answer[:], nil
	case OpSub, OpUnsub:
		// Registry bookkeeping, not an engine operation: no histogram.
		*a = batchAnswer{op: op.Op}
		var err error
		if a.flag, err = s.serveSubOp(connSubsFrom(ctx), op); err != nil {
			return nil, err
		}
		return sc.answer[:], nil
	}
	if err := s.executeOp(ctx, op, a, sc.pts[:0]); err != nil {
		return nil, err
	}
	if op.Op == OpWindow {
		sc.pts = a.pts // keep the grown buffer for the next request
	}
	d := time.Since(start)
	s.observeOp(opRow(op.Op), t, d)
	tr.ObserveStage(obs.StageExecute, d)
	return sc.answer[:], nil
}

// executeOp runs one point, window, kNN, insert or delete op as one
// engine call and writes its answer into a, appending a window's points
// to dst. Both executeSingle and executeBatch run their ops through it.
func (s *Server) executeOp(ctx context.Context, op BatchOp, a *batchAnswer, dst []geom.Point) (err error) {
	*a = batchAnswer{op: op.Op}
	switch op.Op {
	case OpPoint:
		a.flag, err = s.eng.PointQueryContext(ctx, geom.Pt(op.X, op.Y))
	case OpWindow:
		a.pts, err = s.eng.WindowQueryAppend(ctx, dst, geom.Rect{MinX: op.MinX, MinY: op.MinY, MaxX: op.MaxX, MaxY: op.MaxY})
	case OpKNN:
		a.pts, err = s.eng.KNNContext(ctx, geom.Pt(op.X, op.Y), op.K)
	case OpInsert:
		err = s.eng.InsertContext(ctx, geom.Pt(op.X, op.Y))
		a.flag = err == nil
	case OpDelete:
		a.flag, err = s.eng.DeleteContext(ctx, geom.Pt(op.X, op.Y))
	default:
		// validateOps keeps sql out of multi-op batches and executeSingle
		// serves sql, sub and unsub itself, so the only way here is a
		// one-op /v1/batch request carrying sql — point it at /v1/sql.
		err = &StatusError{Code: http.StatusBadRequest, Msg: "sql is not served by /v1/batch; use /v1/sql"}
	}
	return err
}

// executeBatch runs a validated operation list in request order, each op
// through executeOp, observing the batch histogram of the calling
// transport and recording the execute span. A write therefore lands
// before every later op of its batch runs, and after every earlier one.
//
// ctx is the request's context: a batch whose client disconnects or
// whose deadline passes stops at its next engine call (on Sharded, at the
// next shard visit) and returns the context's error — writes already
// applied stay applied, exactly as a batch interleaved with a concurrent
// writer's operations would. A batch is not a transaction: its queries
// may observe concurrent writers' operations.
func (s *Server) executeBatch(ctx context.Context, ops []BatchOp, t transportIdx, tr *obs.Trace) ([]batchAnswer, error) {
	start := time.Now()
	answers := make([]batchAnswer, len(ops))
	for i, op := range ops {
		if err := s.executeOp(ctx, op, &answers[i], nil); err != nil {
			return nil, err
		}
	}
	d := time.Since(start)
	s.observeOp(batchRow, t, d)
	tr.ObserveStage(obs.StageExecute, d)
	return answers, nil
}

// httpExchange adapts one HTTP request. The wire encodings negotiate
// per request and independently: a Content-Type of rsmibin selects the
// binary request decoder, an Accept naming it the binary response
// encoder; errors are always JSON.
type httpExchange struct {
	w  http.ResponseWriter
	r  *http.Request
	rt *opSpec
	sc scratch
}

// httpExchangePool recycles exchanges, so the adapter costs a per-op
// request no allocation the hand-inlined handlers did not pay.
var httpExchangePool = sync.Pool{New: func() interface{} { return new(httpExchange) }}

// handleRoute is the HTTP handler of one routed opTable row.
func (s *Server) handleRoute(rt *opSpec) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr, _ := s.startHTTPTrace(r, rt.op)
		x := httpExchangePool.Get().(*httpExchange)
		x.w, x.r, x.rt = w, r, rt
		s.serve(r.Context(), x, transportHTTP, tr)
		*x = httpExchange{sc: x.sc.recycled()}
		httpExchangePool.Put(x)
	}
}

func (x *httpExchange) decode() ([]BatchOp, bool, bool, error) {
	single := x.rt.req != reqBatch
	if x.r.Method != http.MethodPost {
		return nil, single, false, errPostRequired
	}
	limit := int64(maxBatchBodyBytes)
	if single {
		limit = maxBodyBytes
	}
	// Both decoders copy what they keep: the body goes back to the pool
	// when decode returns.
	bp, body, err := readPooled(http.MaxBytesReader(x.w, x.r.Body, limit))
	defer putPooled(bp, body)
	if err != nil {
		return nil, single, false, fmt.Errorf("bad request body: %v", err)
	}
	if !isBinaryRequest(x.r) {
		ops, err := decodeJSONRequest(body, x.rt, x.sc.ops)
		if err != nil {
			return nil, single, false, fmt.Errorf("bad request body: %v", err)
		}
		x.sc.ops = ops
		return ops, single, false, nil
	}
	ops, explain, err := decodeBinaryOps(body, single)
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

// reply encodes the answers straight into a pooled buffer on both
// encodings — no []PointJSON intermediates, no reflection, O(1)
// allocations per answer whatever its size (jsonstream.go, binproto.go)
// — and the EXPLAIN bit does not change which encoder that is.
func (x *httpExchange) reply(answers []batchAnswer, tj *TraceJSON) {
	bp := binBufPool.Get().(*[]byte)
	b, contentType := (*bp)[:0], "application/json"
	binary := wantsBinaryResponse(x.r)
	if binary {
		b, contentType = appendBinHeader(b), ContentTypeBinary
	}
	switch single := x.rt.req != reqBatch; {
	case binary && single:
		b = appendBinTrace(appendAnswer(b, answers[0]), tj)
	case binary:
		b = appendBinTrace(appendBatchAnswers(b, answers), tj)
	case !single:
		b = appendBatchAnswersJSON(b, answers, tj)
	case x.rt.flag == "":
		b = appendPointsJSON(b, answers[0].pts, tj)
	default:
		b = appendFlagJSON(b, x.rt.op, answers[0].flag, tj)
	}
	x.w.Header().Set("Content-Type", contentType)
	_, _ = x.w.Write(b)
	if cap(b) <= binBufPoolMax {
		*bp = b[:0] // keep the grown capacity for the next response
		binBufPool.Put(bp)
	}
}
