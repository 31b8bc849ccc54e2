package server

// Tests for the context-aware serving path: request contexts reaching the
// engine with the request's own deadline, the streaming JSON batch
// encoder, the stream transport's per-request deadline, and protocol
// equivalence across baseline-backed engines.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/wire"
	"rsmi/internal/workload"
)

// disconnectEngine signals when a window query enters the engine, then
// blocks until the query's context ends and reports the error it saw.
type disconnectEngine struct {
	Engine
	started chan struct{}
	aborted chan error
}

func (e *disconnectEngine) WindowQueryAppend(ctx context.Context, _ []geom.Point, _ geom.Rect) ([]geom.Point, error) {
	close(e.started)
	<-ctx.Done()
	e.aborted <- ctx.Err()
	return nil, ctx.Err()
}

// TestClientDisconnectCancelsQuery is the dropped-context regression
// test: before the v2 API, handlers ignored r.Context() after admission,
// so a disconnected client's query ran to completion. Now the request
// context reaches the engine, which observes the cancellation.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	eng, _ := testEngine(t)
	de := &disconnectEngine{
		Engine:  eng,
		started: make(chan struct{}),
		aborted: make(chan error, 1),
	}
	s := New(Config{Engine: de})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/window",
		strings.NewReader(`{"min_x":0,"min_y":0,"max_x":1,"max_y":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	select {
	case <-de.started:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the engine")
	}
	// The client vanishes mid-query.
	cancel()
	select {
	case err := <-de.aborted:
		if err == nil {
			t.Fatal("engine context ended with nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disconnected client's query was not cancelled in the engine")
	}
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request returned no error to the client")
	}
}

// deadlineEngine reports the deadline every single-query engine call ran
// under (the zero time for none) before delegating.
type deadlineEngine struct {
	Engine
	got chan time.Time
}

func (e *deadlineEngine) report(ctx context.Context) {
	d, _ := ctx.Deadline()
	e.got <- d
}

func (e *deadlineEngine) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	e.report(ctx)
	return e.Engine.PointQueryContext(ctx, q)
}

func (e *deadlineEngine) WindowQueryAppend(ctx context.Context, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	e.report(ctx)
	return e.Engine.WindowQueryAppend(ctx, dst, q)
}

func (e *deadlineEngine) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	e.report(ctx)
	return e.Engine.KNNContext(ctx, q, k)
}

// TestDirectDeadlinePropagation checks that a single query's engine call
// runs under the request's own context: an HTTP request's deadline
// reaches the engine exactly, a request without one imposes none, and a
// stream request gets Config.StreamRequestTimeout and nothing else.
func TestDirectDeadlinePropagation(t *testing.T) {
	eng, _ := testEngine(t)
	de := &deadlineEngine{Engine: eng, got: make(chan time.Time, 1)}
	queries := []struct{ path, body string }{
		{"/v1/point", `{"x":0.5,"y":0.5}`},
		{"/v1/window", `{"min_x":0.4,"min_y":0.4,"max_x":0.6,"max_y":0.6}`},
		{"/v1/knn", `{"x":0.5,"y":0.5,"k":3}`},
	}

	s, _, streamAddr := startStreamServer(t, Config{Engine: de})
	serve := func(ctx context.Context, path, body string) time.Time {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return <-de.got
	}
	want := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	for _, q := range queries {
		if d := serve(context.Background(), q.path, q.body); !d.IsZero() {
			t.Fatalf("%s: deadline-free request ran under deadline %v", q.path, d)
		}
		if d := serve(ctx, q.path, q.body); !d.Equal(want) {
			t.Fatalf("%s: engine deadline = %v, want the request's %v", q.path, d, want)
		}
	}

	// Over the stream the deadline is the server's per-request timeout.
	stream := func(addr string) time.Time {
		t.Helper()
		cl := NewClient(addr, WithTransport(TransportTCP))
		defer cl.Close()
		if _, err := cl.KNN(context.Background(), geom.Pt(0.5, 0.5), 3); err != nil {
			t.Fatal(err)
		}
		return <-de.got
	}
	if d := stream(streamAddr); !d.IsZero() {
		t.Fatalf("stream request without StreamRequestTimeout ran under deadline %v", d)
	}
	_, _, timedAddr := startStreamServer(t, Config{Engine: de, StreamRequestTimeout: time.Hour})
	before := time.Now()
	d := stream(timedAddr)
	if d.Before(before.Add(time.Hour)) || d.After(time.Now().Add(time.Hour)) {
		t.Fatalf("stream engine deadline = %v, want StreamRequestTimeout after the frame arrived", d)
	}
}

// TestDirectCancelledCaller checks what a caller sees when its context
// ends while its query is inside the engine: over HTTP a cancelled
// request is answered 499 and one whose deadline passed 504; over the
// stream the caller gets context.Canceled at once and the connection
// stays usable (TestStreamRequestTimeout covers the stream's 504).
func TestDirectCancelledCaller(t *testing.T) {
	eng, pts := testEngine(t)
	blocking := &blockingEngine{Engine: eng, gate: make(chan struct{})}
	s, _, streamAddr := startStreamServer(t, Config{Engine: blocking})
	admitted := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.inFlight.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("request never admitted")
			}
			runtime.Gosched()
		}
	}

	serve := func(ctx context.Context) int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/point", strings.NewReader(`{"x":0.5,"y":0.5}`)).WithContext(ctx)
		s.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	ctx, cancel := context.WithCancel(context.Background())
	code := make(chan int, 1)
	go func() { code <- serve(ctx) }()
	admitted()
	cancel()
	if c := <-code; c != statusClientClosedRequest {
		t.Fatalf("cancelled HTTP request answered %d, want %d", c, statusClientClosedRequest)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if c := serve(ctx); c != http.StatusGatewayTimeout {
		t.Fatalf("HTTP request past its deadline answered %d, want 504", c)
	}

	cl := NewClient(streamAddr, WithTransport(TransportTCP), WithStreamConns(1))
	defer cl.Close()
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.PointQuery(ctx, pts[0])
		done <- err
	}()
	admitted()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled stream caller got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stream caller still waiting")
	}
	// The abandoned request drains once the engine lets go; its late answer
	// is discarded and the same connection serves the next request.
	close(blocking.gate)
	if found, err := cl.PointQuery(context.Background(), pts[0]); err != nil || !found {
		t.Fatalf("stream unusable after a cancelled request: %v, %v", found, err)
	}
}

// TestBatchJSONStreamEquivalence pins the hand-rolled streaming encoder
// to encoding/json byte for byte, across every result shape and the
// float formats encoding/json special-cases.
func TestBatchJSONStreamEquivalence(t *testing.T) {
	cases := [][]wire.Result{
		{},
		{{Op: OpPoint, Flag: true}, {Op: OpPoint}},
		{{Op: OpInsert, Flag: true}, {Op: OpDelete, Flag: true}, {Op: OpDelete}},
		{{Op: OpWindow}, {Op: OpKNN}},
		{{Op: OpWindow, Pts: []geom.Point{geom.Pt(0.5, 0.25)}}},
		{{Op: OpKNN, Pts: []geom.Point{
			geom.Pt(1e-7, 1e21),     // exponent forms
			geom.Pt(-1e-9, 123456),  // negative exponent cleanup
			geom.Pt(0, -0.00025),    // zero and plain fractions
			geom.Pt(1.0/3.0, 2e300), // long mantissa, big exponent
		}}},
	}
	for i, answers := range cases {
		for _, tj := range []*TraceJSON{nil, testTrace} {
			want, err := json.Marshal(batchResponse{Results: toBatchResults(answers), Trace: tj})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n') // Encoder-style trailing newline
			got := wire.AppendAnswersJSON(nil, batchRoute, answers, tj)
			if string(got) != string(want) {
				t.Fatalf("case %d (trace %v):\n got %s\nwant %s", i, tj != nil, got, want)
			}
		}
	}
}

// testTrace is an EXPLAIN trace with every field set, HTML-escaped
// characters included: the streamed encoders must render it exactly as
// encoding/json renders the Trace field of the response types.
var testTrace = &TraceJSON{
	ID: 7, Backend: "RSMI<a&b>", ShardsVisited: 2, BlockAccesses: 19,
	Stages: []TraceStageJSON{{Stage: "decode", Us: 1.5}, {Stage: "execute", Us: 1e-7}},
	Plan:   &wire.PlanJSON{Backend: "grid", EstCostUS: 3, ActualCostUS: 4.25, EstRows: 12},
}

// toBatchResults converts executed answers to the JSON wire shape: the
// reflective encoding the streamed one is pinned against.
func toBatchResults(answers []wire.Result) []BatchResult {
	out := make([]BatchResult, len(answers))
	for i, a := range answers {
		out[i] = a.BatchResult()
	}
	return out
}

// The answer documents as the server built them for encoding/json before
// the appending encoders replaced them: the oracles those are pinned
// against.
type (
	foundResponse struct {
		Found bool       `json:"found"`
		Trace *TraceJSON `json:"trace,omitempty"`
	}
	deletedResponse struct {
		Deleted bool       `json:"deleted"`
		Trace   *TraceJSON `json:"trace,omitempty"`
	}
	pointsResponse struct {
		Count  int         `json:"count"`
		Points []PointJSON `json:"points"`
		Trace  *TraceJSON  `json:"trace,omitempty"`
	}
	batchResponse struct {
		Results []BatchResult `json:"results"`
		Trace   *TraceJSON    `json:"trace,omitempty"`
	}
)

// toPoints is pts in the JSON wire shape, never nil.
func toPoints(pts []geom.Point) []PointJSON {
	out := make([]PointJSON, len(pts))
	for i, p := range pts {
		out[i] = PointJSON{X: p.X, Y: p.Y}
	}
	return out
}

// TestPointsJSONStreamEquivalence pins the per-op streaming encoder
// (/v1/window and /v1/knn responses) to encoding/json byte for byte,
// including the empty answer, whose "points":[] must match the non-nil
// slice the old []PointJSON path always produced.
func TestPointsJSONStreamEquivalence(t *testing.T) {
	cases := [][]geom.Point{
		nil,
		{},
		{geom.Pt(0.5, 0.25)},
		{
			geom.Pt(1e-7, 1e21),     // exponent forms
			geom.Pt(-1e-9, 123456),  // negative exponent cleanup
			geom.Pt(0, -0.00025),    // zero and plain fractions
			geom.Pt(1.0/3.0, 2e300), // long mantissa, big exponent
		},
	}
	for i, pts := range cases {
		for _, tj := range []*TraceJSON{nil, testTrace} {
			want, err := json.Marshal(pointsResponse{Count: len(pts), Points: toPoints(pts), Trace: tj})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n') // Encoder-style trailing newline
			got := wire.AppendAnswersJSON(nil, wire.Lookup(wire.Row(OpWindow)), []wire.Result{{Op: OpWindow, Pts: pts}}, tj)
			if string(got) != string(want) {
				t.Fatalf("case %d (trace %v):\n got %s\nwant %s", i, tj != nil, got, want)
			}
		}
	}
}

// responseJSON is a bool op's per-op answer document as the server built
// it for json.Encoder: the oracle the appending encoder is pinned against.
func responseJSON(a wire.Result, tj *TraceJSON) interface{} {
	switch a.Op {
	case OpInsert:
		return wire.OKResponse{OK: a.Flag, Trace: tj}
	case OpDelete:
		return deletedResponse{Deleted: a.Flag, Trace: tj}
	}
	return foundResponse{Found: a.Flag, Trace: tj}
}

// TestFlagJSONStreamEquivalence pins the per-op bool answers (/v1/point,
// /v1/insert, /v1/delete) to the bytes json.Encoder wrote for them — the
// flag, false included, the trace, the trailing newline — and the
// untraced answer at no allocation.
func TestFlagJSONStreamEquivalence(t *testing.T) {
	for _, op := range []string{OpPoint, OpInsert, OpDelete} {
		for _, flag := range []bool{true, false} {
			for _, tj := range []*TraceJSON{nil, testTrace} {
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(responseJSON(wire.Result{Op: op, Flag: flag}, tj)); err != nil {
					t.Fatal(err)
				}
				got := wire.AppendAnswersJSON(nil, wire.Lookup(wire.Row(op)), []wire.Result{{Op: op, Flag: flag}}, tj)
				if string(got) != want.String() {
					t.Fatalf("%s %v (trace %v):\n got %s\nwant %s", op, flag, tj != nil, got, want.Bytes())
				}
			}
		}
	}
	del := wire.Lookup(wire.Row(OpDelete))
	answer := []wire.Result{{Op: OpDelete, Flag: true}}
	buf := wire.AppendAnswersJSON(nil, del, answer, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = wire.AppendAnswersJSON(buf[:0], del, answer, nil)
	}); allocs > 0 {
		t.Fatalf("per-op bool JSON encode allocates %.1f times, want 0", allocs)
	}
}

// TestStreamRequestTimeout checks Config.StreamRequestTimeout: a stream
// request still executing past the per-request deadline fails with a
// 504-coded status frame, and the connection keeps serving.
func TestStreamRequestTimeout(t *testing.T) {
	eng, pts := testEngine(t)
	blocking := &blockingEngine{Engine: eng, gate: make(chan struct{})}
	_, _, streamAddr := startStreamServer(t, Config{
		Engine:               blocking,
		StreamRequestTimeout: 50 * time.Millisecond,
	})
	cl := NewClient(streamAddr, WithTransport(TransportTCP))
	defer cl.Close()

	_, err := cl.PointQuery(context.Background(), pts[0])
	se, ok := err.(*wire.StatusError)
	if !ok || se.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline-exceeded stream request: got %v, want StatusError 504", err)
	}
	// The connection survives the 504 and later requests still work.
	close(blocking.gate)
	if found, err := cl.PointQuery(context.Background(), pts[0]); err != nil || !found {
		t.Fatalf("stream unusable after per-request timeout: %v, %v", found, err)
	}
}

// TestProtocolEquivalenceAcrossEngines is the acceptance gate for the
// baseline engines: every backend the v2 API admits must answer
// identically over HTTP JSON, HTTP binary, and the TCP stream — the
// harness that makes cross-engine serving numbers meaningful.
func TestProtocolEquivalenceAcrossEngines(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1500, 71)
	for _, tc := range []struct {
		name  string
		build func() Engine
	}{
		{"rstar", func() Engine { return rsmi.NewRStarEngine(pts, 0) }},
		{"grid", func() Engine { return rsmi.NewGridFileEngine(pts, 0) }},
		{"kdb", func() Engine { return rsmi.NewKDBEngine(pts, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, httpURL, streamAddr := startStreamServer(t, Config{Engine: tc.build()})
			clients := map[string]*Client{
				"http-json":   NewClient(httpURL),
				"http-binary": NewClient(httpURL, WithProto(ProtoBinary)),
				"tcp-stream":  NewClient(streamAddr, WithTransport(TransportTCP)),
			}
			t.Cleanup(func() {
				for _, cl := range clients {
					cl.Close()
				}
			})

			for _, p := range []geom.Point{pts[0], pts[77], geom.Pt(-2, -2)} {
				want, err := clients["http-json"].PointQuery(context.Background(), p)
				if err != nil {
					t.Fatalf("json PointQuery: %v", err)
				}
				for name, cl := range clients {
					if got, err := cl.PointQuery(context.Background(), p); err != nil || got != want {
						t.Fatalf("%s PointQuery(%v) = %v, %v; want %v", name, p, got, err, want)
					}
				}
			}
			for _, q := range workload.Windows(pts, 6, 0.01, 1, 72) {
				want, err := clients["http-json"].WindowQuery(context.Background(), q)
				if err != nil {
					t.Fatalf("json WindowQuery: %v", err)
				}
				for name, cl := range clients {
					got, err := cl.WindowQuery(context.Background(), q)
					if err != nil || len(got) != len(want) {
						t.Fatalf("%s WindowQuery: %d points, %v; want %d", name, len(got), err, len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s WindowQuery point %d differs", name, i)
						}
					}
				}
			}
			for _, k := range []int{0, 1, 9} {
				want, err := clients["http-json"].KNN(context.Background(), pts[3], k)
				if err != nil {
					t.Fatalf("json KNN: %v", err)
				}
				for name, cl := range clients {
					got, err := cl.KNN(context.Background(), pts[3], k)
					if err != nil || len(got) != len(want) {
						t.Fatalf("%s KNN k=%d: %d points, %v; want %d", name, k, len(got), err, len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s KNN k=%d point %d differs", name, k, i)
						}
					}
				}
			}
			// Heterogeneous batch, including writes, across all three.
			win := geom.RectAround(pts[9], 0.1, 0.1)
			ops := []BatchOp{
				{Op: OpPoint, X: pts[0].X, Y: pts[0].Y},
				{Op: OpWindow, MinX: win.MinX, MinY: win.MinY, MaxX: win.MaxX, MaxY: win.MaxY},
				{Op: OpKNN, X: pts[1].X, Y: pts[1].Y, K: 3},
				{Op: OpDelete, X: -9, Y: -9},
			}
			want, err := clients["http-json"].Batch(context.Background(), ops)
			if err != nil {
				t.Fatalf("json Batch: %v", err)
			}
			for name, cl := range clients {
				got, err := cl.Batch(context.Background(), ops)
				if err != nil || len(got) != len(want) {
					t.Fatalf("%s Batch: %d results, %v", name, len(got), err)
				}
				for i := range want {
					if got[i].Found != want[i].Found || got[i].Count != want[i].Count ||
						got[i].Deleted != want[i].Deleted || len(got[i].Points) != len(want[i].Points) {
						t.Fatalf("%s batch result %d: %+v vs %+v", name, i, got[i], want[i])
					}
				}
			}
			// Writes round-trip across transports.
			ins := geom.Pt(0.515151, 0.626262)
			if err := clients["tcp-stream"].Insert(context.Background(), ins); err != nil {
				t.Fatalf("stream Insert: %v", err)
			}
			if found, _ := clients["http-binary"].PointQuery(context.Background(), ins); !found {
				t.Fatal("stream insert not visible over HTTP binary")
			}
			if deleted, _ := clients["http-json"].Delete(context.Background(), ins); !deleted {
				t.Fatal("JSON delete of stream insert failed")
			}
			// The stats endpoint names the backend.
			st, err := clients["http-json"].Stats()
			if err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if st.Engine == "" || st.Engine == "Sharded" {
				t.Fatalf("stats engine = %q, want the baseline's name", st.Engine)
			}
		})
	}
}
