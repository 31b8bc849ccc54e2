package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rsmi/internal/geom"
	"rsmi/internal/obs"
)

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps nothing but the status.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// allocSlack is what an allocation pin tolerates above its count: nothing,
// except under the race detector, where sync.Pool sheds a quarter of its
// puts and the pooled exchange and buffers are re-made that often.
func allocSlack() float64 {
	if raceDetector {
		return 4
	}
	return 0
}

// TestHandlerAllocs pins what one untraced per-op request costs through
// Server.Handler().ServeHTTP — mux, admission, decode, validation, engine,
// encode — at the measured counts, so the ledger's server.handler_*_us
// cells cannot quietly start paying for something new. The window crosses
// shards, and costs what a point costs: its shards append into the
// exchange's scratch one after another on the request's goroutine.
func TestHandlerAllocs(t *testing.T) {
	eng, pts := testEngine(t)
	s := New(Config{Engine: eng})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	win := geom.RectAround(pts[3], 0.02, 0.02)
	pointOp := BatchOp{Op: OpPoint, X: pts[0].X, Y: pts[0].Y}
	winOp := BatchOp{Op: OpWindow, MinX: win.MinX, MinY: win.MinY, MaxX: win.MaxX, MaxY: win.MaxY}
	jsonBody := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	binBody := func(op BatchOp) []byte {
		b, err := appendOp(appendBinHeader(nil), op)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name, path string
		binary     bool
		body       []byte
		max        float64
	}{
		{"json-point", "/v1/point", false, jsonBody(PointJSON{X: pointOp.X, Y: pointOp.Y}), 2},
		{"json-window", "/v1/window", false, jsonBody(RectJSON{MinX: win.MinX, MinY: win.MinY, MaxX: win.MaxX, MaxY: win.MaxY}), 2},
		{"rsmibin-point", "/v1/point", true, binBody(pointOp), 3},
		{"rsmibin-window", "/v1/window", true, binBody(winOp), 3},
	} {
		body := &rewindBody{}
		req := httptest.NewRequest(http.MethodPost, c.path, body)
		req.Header.Set("Content-Type", "application/json")
		if c.binary {
			req.Header.Set("Content-Type", ContentTypeBinary)
			req.Header.Set("Accept", ContentTypeBinary)
		}
		w := &discardWriter{h: http.Header{}}
		got := testing.AllocsPerRun(200, func() {
			body.Reset(c.body)
			w.code = http.StatusOK
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d", c.name, w.code)
			}
		})
		t.Logf("%s: %v allocs/request", c.name, got)
		if got > c.max+allocSlack() {
			t.Errorf("%s: %v allocs/request, want <= %v", c.name, got, c.max)
		}
	}
}

// TestStreamRoundTripAllocs is TestHandlerAllocs for the stream path: one
// untraced one-op round trip over a real loopback connection, client and
// server in this process, so the count covers both sides — client encode,
// frame write, the server's read loop serving the frame from its
// per-connection request buffer into its write queue, the pipeline, the
// client's read loop and wake-up.
func TestStreamRoundTripAllocs(t *testing.T) {
	eng, pts := testEngine(t)
	_, _, streamAddr := startStreamServer(t, Config{Engine: eng})
	cl := NewClient(streamAddr, WithTransport(TransportTCP), WithStreamConns(1))
	defer cl.Close()
	ctx := context.Background()
	win := geom.RectAround(pts[3], 0.02, 0.02)
	next := 0
	for _, c := range []struct {
		name string
		op   func() error
		max  float64
	}{
		{"point", func() error { _, err := cl.PointQuery(ctx, pts[0]); return err }, 9},
		{"window", func() error { _, err := cl.WindowQuery(ctx, win); return err }, 10},
		{"insert", func() error { next++; return cl.Insert(ctx, geom.Pt(0.25+float64(next)*1e-6, 0.75)) }, 10},
	} {
		if err := c.op(); err != nil { // dials, warms the pools
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := c.op(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %v allocs/round trip", c.name, got)
		if got > c.max+allocSlack() {
			t.Errorf("%s: %v allocs/round trip, want <= %v", c.name, got, c.max)
		}
	}
}

// pipelineTransports returns one client per codec × transport against
// the same server.
func pipelineTransports(t *testing.T, httpURL, streamAddr string) []struct {
	name string
	idx  transportIdx
	cl   *Client
} {
	cls := []struct {
		name string
		idx  transportIdx
		cl   *Client
	}{
		{"http-json", transportHTTP, NewClient(httpURL)},
		{"http-rsmibin", transportHTTP, NewClient(httpURL, WithProto(ProtoBinary))},
		{"rsmistream", transportStream, NewClient(streamAddr, WithTransport(TransportTCP))},
	}
	for _, c := range cls {
		t.Cleanup(c.cl.Close)
	}
	return cls
}

// TestPipelineAcrossTransports drives every op through every adapter of
// the one request pipeline and requires what the pipeline promises:
// the same answer whatever carried the request, exactly one histogram
// cell — [op][transport] — moving per request, and the same EXPLAIN
// stage names (the server samples every request, so each transport
// traces from arrival).
func TestPipelineAcrossTransports(t *testing.T) {
	eng, pts := testEngine(t)
	s, httpURL, streamAddr := startStreamServer(t, Config{
		Engine:   eng,
		Observer: obs.NewObserver(1, nil),
	})
	ctx := context.Background()
	win := geom.RectAround(pts[3], 0.05, 0.05)
	// Writes take a fresh point per call so every call does the same work:
	// inserts add a new point, deletes remove one that is there.
	next := 0
	fresh := func() geom.Point { next++; return geom.Pt(0.25+float64(next)*1e-4, 0.75) }
	victim := func() geom.Point { next++; return pts[1000+next] }

	for _, op := range []struct {
		name string
		idx  byte
		run  func(cl *Client, opts ...QueryOpt) (interface{}, error)
	}{
		{OpPoint, binOpPoint, func(cl *Client, opts ...QueryOpt) (interface{}, error) {
			return cl.PointQuery(ctx, pts[0], opts...)
		}},
		{OpWindow, binOpWindow, func(cl *Client, opts ...QueryOpt) (interface{}, error) {
			return cl.WindowQuery(ctx, win, opts...)
		}},
		{OpKNN, binOpKNN, func(cl *Client, opts ...QueryOpt) (interface{}, error) {
			return cl.KNN(ctx, pts[7], 5, opts...)
		}},
		{OpInsert, binOpInsert, func(cl *Client, opts ...QueryOpt) (interface{}, error) {
			return nil, cl.Insert(ctx, fresh(), opts...)
		}},
		{OpDelete, binOpDelete, func(cl *Client, opts ...QueryOpt) (interface{}, error) {
			return cl.Delete(ctx, victim(), opts...)
		}},
		{OpSQL, binOpSQL, func(cl *Client, opts ...QueryOpt) (interface{}, error) {
			return cl.SQL(ctx, fmt.Sprintf("SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g))",
				win.MinX, win.MinY, win.MaxX, win.MaxY), opts...)
		}},
		{"batch-of-3", batchRow, func(cl *Client, opts ...QueryOpt) (interface{}, error) {
			return cl.Batch(ctx, []BatchOp{
				{Op: OpPoint, X: pts[0].X, Y: pts[0].Y},
				{Op: OpWindow, MinX: win.MinX, MinY: win.MinY, MaxX: win.MaxX, MaxY: win.MaxY},
				{Op: OpKNN, X: pts[7].X, Y: pts[7].Y, K: 5},
			}, opts...)
		}},
	} {
		var wantAnswer interface{}
		var wantStages string
		for i, tc := range pipelineTransports(t, httpURL, streamAddr) {
			var before, after [len(opTable)][numTransports]int64
			for o := range before {
				for tr := range before[o] {
					before[o][tr] = s.hists[o][tr].stats().Count
				}
			}
			got, err := op.run(tc.cl)
			if err != nil {
				t.Fatalf("%s over %s: %v", op.name, tc.name, err)
			}
			for o := range after {
				for tr := range after[o] {
					after[o][tr] = s.hists[o][tr].stats().Count
				}
			}
			before[op.idx][tc.idx]++
			if before != after {
				t.Errorf("%s over %s: histogram cells moved other than [%s][%s]+1:\nwant %v\n got %v",
					op.name, tc.name, opTable[op.idx].op, transportIdxName[tc.idx], before, after)
			}

			var tj *TraceJSON
			if _, err := op.run(tc.cl, WithExplain(&tj)); err != nil || tj == nil {
				t.Fatalf("%s over %s with EXPLAIN: %v (trace %v)", op.name, tc.name, err, tj)
			}
			var names []string
			for name := range stageSet(tj) {
				names = append(names, name)
			}
			sort.Strings(names)
			stages := strings.Join(names, ",")

			if i == 0 {
				wantAnswer, wantStages = got, stages
				continue
			}
			if !reflect.DeepEqual(got, wantAnswer) {
				t.Errorf("%s: %s answered %v, http-json answered %v", op.name, tc.name, got, wantAnswer)
			}
			if stages != wantStages {
				t.Errorf("%s: %s EXPLAIN stages {%s}, http-json {%s}", op.name, tc.name, stages, wantStages)
			}
		}
	}
}

// TestBatchRunsInRequestOrder: a batch runs its ops in the order they were
// sent, on every transport, so a query sees the writes before it in its
// batch and none after it.
func TestBatchRunsInRequestOrder(t *testing.T) {
	eng, _ := testEngine(t)
	_, httpURL, streamAddr := startStreamServer(t, Config{Engine: eng})
	ctx := context.Background()
	for i, tc := range pipelineTransports(t, httpURL, streamAddr) {
		p := geom.Pt(0.125+float64(i)*1e-3, 0.625) // not indexed
		if found, err := eng.PointQueryContext(ctx, p); err != nil || found {
			t.Fatalf("%v is indexed already (%v)", p, err)
		}
		res, err := tc.cl.Batch(ctx, []BatchOp{
			{Op: OpPoint, X: p.X, Y: p.Y},
			{Op: OpInsert, X: p.X, Y: p.Y},
			{Op: OpPoint, X: p.X, Y: p.Y},
			{Op: OpDelete, X: p.X, Y: p.Y},
			{Op: OpPoint, X: p.X, Y: p.Y},
		})
		if err != nil || len(res) != 5 {
			t.Fatalf("%s: %d answers, %v", tc.name, len(res), err)
		}
		got := []bool{res[0].Found, res[1].OK, res[2].Found, res[3].Deleted, res[4].Found}
		if want := []bool{false, true, true, true, false}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: point, insert, point, delete, point answered %v, want %v", tc.name, got, want)
		}
	}
}

// TestPipelineRejectsAlike sends the same bad input through every
// adapter and requires the same status: validation is one function, so
// no transport can be laxer than another.
func TestPipelineRejectsAlike(t *testing.T) {
	eng, _ := testEngine(t)
	_, httpURL, streamAddr := startStreamServer(t, Config{Engine: eng})
	ctx := context.Background()
	transports := pipelineTransports(t, httpURL, streamAddr)

	// status sends one request and returns its status (200 for success).
	// A request the client-side encoders refuse to build (NaN in JSON, an
	// op they do not know) is given as a raw body instead of ops.
	status := func(tc int, path string, single bool, ops []BatchOp, rawJSON string, rawBin []byte) int {
		t.Helper()
		cl := transports[tc].cl
		var err error
		switch transports[tc].name {
		case "http-json":
			body := []byte(rawJSON)
			if rawJSON == "" {
				body, _ = json.Marshal(requestJSON(&routes[routeIndex(t, path)], ops))
			}
			err = cl.post(ctx, path, "application/json", body, nil)
		case "http-rsmibin":
			if rawBin == nil {
				rawBin, _ = encodeBinaryOps(ops, single, false)
			}
			err = cl.post(ctx, path, ContentTypeBinary, rawBin, nil)
		default:
			if rawBin == nil {
				rawBin, _ = encodeBinaryOps(ops, false, false)
			}
			conn, cerr := cl.stream.get()
			if cerr != nil {
				t.Fatal(cerr)
			}
			_, _, err = conn.roundTrip(ctx, func(b []byte) ([]byte, error) { return append(b, rawBin...), nil })
		}
		if err == nil {
			return http.StatusOK
		}
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("%s %s: %v", transports[tc].name, path, err)
		}
		return se.Code
	}

	nan := math.NaN()
	unknownOp := append(appendUvarint(appendBinHeader(nil), 1), 0x7f)
	sub := BatchOp{Op: OpSub, SubID: 1, SubKind: SubWindow, MaxX: 1, MaxY: 1}
	for _, c := range []struct {
		name    string
		path    string
		single  bool
		ops     []BatchOp
		rawJSON string // JSON cannot spell NaN; an out-of-range literal is its non-finite input
		rawBin  []byte
		skip    string // a transport the input is not bad on
	}{
		{name: "NaN coordinate", path: "/v1/point", single: true,
			ops: []BatchOp{{Op: OpPoint, X: nan, Y: 0.5}}, rawJSON: `{"x":1e999,"y":0.5}`},
		{name: "NaN coordinate in a batch", path: "/v1/batch",
			ops:     []BatchOp{{Op: OpPoint, X: 0.5, Y: 0.5}, {Op: OpKNN, X: nan, Y: 0.5, K: 1}},
			rawJSON: `{"ops":[{"op":"point","x":0.5,"y":0.5},{"op":"knn","x":1e999,"y":0.5,"k":1}]}`},
		{name: "min > max window", path: "/v1/window", single: true,
			ops: []BatchOp{{Op: OpWindow, MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}}},
		{name: "unknown op", path: "/v1/batch",
			rawJSON: `{"ops":[{"op":"teleport"}]}`, rawBin: unknownOp},
		{name: "sql inside a multi-op batch", path: "/v1/batch",
			ops: []BatchOp{{Op: OpPoint, X: 0.5, Y: 0.5}, {Op: OpSQL, SQL: "SELECT * FROM points ORDER BY ST_Distance(pt, POINT(0.5, 0.5)) LIMIT 1"}}},
		{name: "sub outside a single-op stream frame", path: "/v1/batch",
			ops: []BatchOp{sub, {Op: OpPoint, X: 0.5, Y: 0.5}}},
		{name: "sub over HTTP", path: "/v1/batch", ops: []BatchOp{sub}, skip: "rsmistream"},
	} {
		for tc := range transports {
			if transports[tc].name == c.skip {
				continue
			}
			if got := status(tc, c.path, c.single, c.ops, c.rawJSON, c.rawBin); got != http.StatusBadRequest {
				t.Errorf("%s over %s: status %d, want 400", c.name, transports[tc].name, got)
			}
		}
	}
	// The one place the transports differ on purpose: a single-op sub
	// frame is how the stream subscribes.
	if got := status(2, "/v1/batch", false, []BatchOp{sub}, "", nil); got != http.StatusOK {
		t.Errorf("single-op sub frame over rsmistream: status %d, want 200", got)
	}
}
