package server

// Tests for the context-aware serving path: request contexts reaching the
// engine, coalescer deadline propagation, the streaming JSON batch
// encoder, the stream transport's per-request deadline, and protocol
// equivalence across baseline-backed engines.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/workload"
)

// disconnectEngine signals when a window query enters the engine, then
// blocks until the query's context ends and reports the error it saw.
type disconnectEngine struct {
	Engine
	started chan struct{}
	aborted chan error
}

func (e *disconnectEngine) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
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
	// MaxBatch 1: the request context flows straight into the engine.
	s := New(Config{Engine: de, MaxBatch: 1})
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

// TestCoalescerDeadlinePropagation checks that the micro-batch engine
// call runs under the earliest deadline of its members, and that members
// without deadlines impose none.
func TestCoalescerDeadlinePropagation(t *testing.T) {
	got := make(chan time.Time, 1)
	co := newCoalescer(8, 0, func(ctx context.Context, qs []int) ([]int, error) {
		d, ok := ctx.Deadline()
		if !ok {
			d = time.Time{}
		}
		got <- d
		return make([]int, len(qs)), nil
	})
	defer co.shutdown()

	// No deadline in → no deadline out.
	if _, err := co.do(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if d := <-got; !d.IsZero() {
		t.Fatalf("deadline-free batch ran under deadline %v", d)
	}

	// A member deadline reaches the engine call exactly.
	want := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()
	if _, err := co.do(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if d := <-got; !d.Equal(want) {
		t.Fatalf("batch deadline = %v, want %v", d, want)
	}
}

// TestCoalescerCancelledCaller checks that a caller whose context ends
// while queued stops waiting with its context's error, without failing
// the dispatcher.
func TestCoalescerCancelledCaller(t *testing.T) {
	block := make(chan struct{})
	co := newCoalescer(8, 0, func(ctx context.Context, qs []int) ([]int, error) {
		<-block
		return make([]int, len(qs)), nil
	})
	defer func() {
		close(block)
		co.shutdown()
	}()

	// First query occupies the dispatcher.
	go co.do(context.Background(), 1)
	// Second query queues behind it; its context is cancelled while
	// waiting.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := co.do(ctx, 2)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled caller got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller still waiting on its batch")
	}
}

// TestCoalescerExpiredMemberDoesNotPoisonBatch checks that a member
// whose deadline passed while queued is answered with its own error and
// excluded from the engine call, instead of donating an already-past
// deadline that would fail every healthy peer in the micro-batch.
func TestCoalescerExpiredMemberDoesNotPoisonBatch(t *testing.T) {
	block := make(chan struct{})
	running := make(chan struct{}, 1)
	co := newCoalescer(8, 0, func(ctx context.Context, qs []int) ([]int, error) {
		select {
		case running <- struct{}{}: // the first batch holds the dispatcher
		default:
		}
		<-block // closed thereafter
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := make([]int, len(qs))
		for i, q := range qs {
			out[i] = q * 10
		}
		return out, nil
	})
	defer co.shutdown()

	// Occupy the dispatcher so the next two submissions share a batch.
	first := make(chan error, 1)
	go func() {
		_, err := co.do(context.Background(), 1)
		first <- err
	}()
	<-running
	// A queues with a deadline that expires while it waits; B is healthy.
	expCtx, expCancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer expCancel()
	aErr := make(chan error, 1)
	go func() {
		_, err := co.do(expCtx, 2)
		aErr <- err
	}()
	bRes := make(chan answer[int], 1)
	go func() {
		r, err := co.do(context.Background(), 3)
		bRes <- answer[int]{r: r, err: err}
	}()
	// Release the dispatcher only once both members are queued behind the
	// running batch and A's deadline has passed — events, not a sleep.
	// (On a stalled box A can expire before it queues; the assertions
	// below hold either way, so that just ends the wait.)
	for len(co.in) < 2 && expCtx.Err() == nil {
		runtime.Gosched()
	}
	<-expCtx.Done()
	close(block)

	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
	if err := <-aErr; err != context.DeadlineExceeded {
		t.Fatalf("expired member got %v, want DeadlineExceeded", err)
	}
	b := <-bRes
	if b.err != nil || b.r != 30 {
		t.Fatalf("healthy peer poisoned by expired member: %v, %v", b.r, b.err)
	}
}

// TestBatchJSONStreamEquivalence pins the hand-rolled streaming encoder
// to encoding/json byte for byte, across every result shape and the
// float formats encoding/json special-cases.
func TestBatchJSONStreamEquivalence(t *testing.T) {
	cases := [][]batchAnswer{
		{},
		{{op: OpPoint, flag: true}, {op: OpPoint}},
		{{op: OpInsert, flag: true}, {op: OpDelete, flag: true}, {op: OpDelete}},
		{{op: OpWindow}, {op: OpKNN}},
		{{op: OpWindow, pts: []geom.Point{geom.Pt(0.5, 0.25)}}},
		{{op: OpKNN, pts: []geom.Point{
			geom.Pt(1e-7, 1e21),     // exponent forms
			geom.Pt(-1e-9, 123456),  // negative exponent cleanup
			geom.Pt(0, -0.00025),    // zero and plain fractions
			geom.Pt(1.0/3.0, 2e300), // long mantissa, big exponent
		}}},
	}
	for i, answers := range cases {
		want, err := json.Marshal(BatchResponse{Results: toBatchResults(answers)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n') // Encoder-style trailing newline
		got := appendBatchAnswersJSON(nil, answers)
		if string(got) != string(want) {
			t.Fatalf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestBatchJSONEncodeAllocs mirrors TestBatchBinaryEncodeAllocs for the
// streaming JSON path: encoding a batch response of any size into a warm
// pooled buffer allocates nothing per point and nothing per result.
func TestBatchJSONEncodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	answers := make([]batchAnswer, 32)
	for i := range answers {
		pts := make([]geom.Point, 100)
		for j := range pts {
			pts[j] = geom.Pt(rng.Float64(), rng.Float64())
		}
		answers[i] = batchAnswer{op: OpWindow, pts: pts}
	}
	// Warm the buffer to steady-state capacity, as the response pool does.
	buf := appendBatchAnswersJSON(nil, answers)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendBatchAnswersJSON(buf[:0], answers)
	})
	if allocs > 0 {
		t.Fatalf("JSON batch encode allocates %.1f times per 32×100-point batch, want 0", allocs)
	}
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
		want, err := json.Marshal(PointsResponse{Count: len(pts), Points: toPoints(pts)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n') // Encoder-style trailing newline
		got := appendPointsJSON(nil, pts)
		if string(got) != string(want) {
			t.Fatalf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestPointsJSONEncodeAllocs mirrors TestBatchJSONEncodeAllocs for the
// per-op path: encoding a window/kNN response of any size into a warm
// pooled buffer allocates nothing.
func TestPointsJSONEncodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	// Warm the buffer to steady-state capacity, as the response pool does.
	buf := appendPointsJSON(nil, pts)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendPointsJSON(buf[:0], pts)
	})
	if allocs > 0 {
		t.Fatalf("per-op JSON encode allocates %.1f times per 500-point response, want 0", allocs)
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
		MaxBatch:             1,
		StreamRequestTimeout: 50 * time.Millisecond,
	})
	cl := NewClient(streamAddr, WithTransport(TransportTCP))
	defer cl.Close()

	_, err := cl.PointQuery(context.Background(), pts[0])
	se, ok := err.(*StatusError)
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
// baseline adapters: every backend the v2 API admits must answer
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
			_, httpURL, streamAddr := startStreamServer(t, Config{Engine: tc.build(), MaxBatch: 8})
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
