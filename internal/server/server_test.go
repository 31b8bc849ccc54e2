package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/shard"
	"rsmi/internal/workload"
)

// testEngine builds a small sharded engine for end-to-end tests.
func testEngine(t testing.TB) (*shard.Sharded, []geom.Point) {
	t.Helper()
	pts := dataset.Generate(dataset.Skewed, 2000, 61)
	s := shard.New(pts, shard.Options{
		Shards: 3,
		Index: core.Options{
			BlockCapacity:      50,
			PartitionThreshold: 500,
			Epochs:             10,
			LearningRate:       0.1,
			Seed:               1,
		},
	})
	return s, pts
}

// startTestServer serves cfg over httptest and returns a client for it.
func startTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, NewClient(hs.URL)
}

// TestEndToEnd drives every endpoint through the client and checks the
// answers against direct engine calls.
func TestEndToEnd(t *testing.T) {
	eng, pts := testEngine(t)
	_, cl := startTestServer(t, Config{Engine: eng})

	if err := cl.Health(); err != nil {
		t.Fatalf("Health: %v", err)
	}

	// Point queries: hit and miss.
	found, err := cl.PointQuery(context.Background(), pts[42])
	if err != nil || !found {
		t.Fatalf("PointQuery(indexed) = %v, %v", found, err)
	}
	found, err = cl.PointQuery(context.Background(), geom.Pt(-5, -5))
	if err != nil || found {
		t.Fatalf("PointQuery(absent) = %v, %v", found, err)
	}

	// Window: must equal the engine's answer exactly (order included).
	for _, q := range workload.Windows(pts, 10, 0.01, 1, 62) {
		got, err := cl.WindowQuery(context.Background(), q)
		if err != nil {
			t.Fatalf("WindowQuery: %v", err)
		}
		want, err := eng.WindowQueryContext(context.Background(), q)
		if err != nil || len(got) != len(want) {
			t.Fatalf("WindowQuery: %d points, engine says %d (%v)", len(got), len(want), err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("WindowQuery point %d: %v vs %v", i, got[i], want[i])
			}
		}
	}

	// kNN: k results, sorted (the engine call itself is covered by the
	// shard tests; here we check the transport preserves them).
	q := pts[7]
	knn, err := cl.KNN(context.Background(), q, 5)
	if err != nil || len(knn) != 5 {
		t.Fatalf("KNN = %d points, %v", len(knn), err)
	}
	for i := 1; i < len(knn); i++ {
		if q.Dist2(knn[i-1]) > q.Dist2(knn[i]) {
			t.Fatalf("KNN results not sorted")
		}
	}
	if got, _ := cl.KNN(context.Background(), q, 0); len(got) != 0 {
		t.Fatalf("KNN k=0 returned %d points", len(got))
	}

	// Insert, query, delete round-trip over the wire.
	p := geom.Pt(0.123456, 0.654321)
	if err := cl.Insert(context.Background(), p); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if found, _ := cl.PointQuery(context.Background(), p); !found {
		t.Fatal("inserted point not found")
	}
	if deleted, _ := cl.Delete(context.Background(), p); !deleted {
		t.Fatal("delete of inserted point failed")
	}
	if deleted, _ := cl.Delete(context.Background(), p); deleted {
		t.Fatal("second delete succeeded")
	}

	// Stats reflect the traffic.
	st, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Points != eng.Len() || st.Shards != 3 {
		t.Fatalf("stats points=%d shards=%d", st.Points, st.Shards)
	}
	if st.Ops[OpPoint].Count == 0 || st.Ops[OpWindow].Count == 0 {
		t.Fatalf("op counters not advancing: %+v", st.Ops)
	}
}

// TestBatchEndpoint sends a heterogeneous batch and checks each slot.
func TestBatchEndpoint(t *testing.T) {
	eng, pts := testEngine(t)
	_, cl := startTestServer(t, Config{Engine: eng})

	win := geom.RectAround(pts[3], 0.1, 0.1)
	ins := geom.Pt(0.111, 0.222)
	ops := []BatchOp{
		{Op: OpPoint, X: pts[0].X, Y: pts[0].Y},
		{Op: OpWindow, MinX: win.MinX, MinY: win.MinY, MaxX: win.MaxX, MaxY: win.MaxY},
		{Op: OpKNN, X: pts[1].X, Y: pts[1].Y, K: 3},
		{Op: OpInsert, X: ins.X, Y: ins.Y},
		{Op: OpDelete, X: -9, Y: -9},
		{Op: OpPoint, X: -9, Y: -9},
	}
	res, err := cl.Batch(context.Background(), ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(res) != len(ops) {
		t.Fatalf("batch returned %d results for %d ops", len(res), len(ops))
	}
	if !res[0].Found {
		t.Fatal("batch point query missed indexed point")
	}
	want, err := eng.WindowQueryContext(context.Background(), win)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Count != len(want) || len(res[1].Points) != len(want) {
		t.Fatalf("batch window count %d, engine says %d", res[1].Count, len(want))
	}
	if len(res[2].Points) != 3 {
		t.Fatalf("batch knn returned %d points", len(res[2].Points))
	}
	if !res[3].OK {
		t.Fatal("batch insert not OK")
	}
	if res[4].Deleted {
		t.Fatal("batch delete of absent point succeeded")
	}
	if res[5].Found {
		t.Fatal("batch point query found absent point")
	}
	// The batch's insert is visible afterwards.
	if found, _ := cl.PointQuery(context.Background(), ins); !found {
		t.Fatal("batch insert not visible")
	}
	// An empty batch is an empty answer, not a client-side panic.
	if res, err := cl.Batch(context.Background(), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
}

// TestRequestValidation covers the 4xx surface.
func TestRequestValidation(t *testing.T) {
	eng, _ := testEngine(t)
	_, cl := startTestServer(t, Config{Engine: eng})

	post := func(path, body string) int {
		resp, err := http.Post(cl.base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/point", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", code)
	}
	if code := post("/v1/point", `{"x": 1e999, "y": 0}`); code != http.StatusBadRequest {
		t.Fatalf("inf coordinate: status %d", code)
	}
	if code := post("/v1/window", `{"min_x":1,"min_y":0,"max_x":0,"max_y":1}`); code != http.StatusBadRequest {
		t.Fatalf("inverted window: status %d", code)
	}
	if code := post("/v1/batch", `{"ops":[{"op":"teleport"}]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d", code)
	}
	resp, err := http.Get(cl.base + "/v1/point")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint: status %d", resp.StatusCode)
	}
}

// blockingEngine wraps an Engine so tests can hold queries open and
// observe admission control deterministically. The gate also honours the
// query's context, so cancellation tests can block a query and then watch
// it abandon the engine.
type blockingEngine struct {
	Engine
	gate chan struct{}
}

func (b *blockingEngine) wait(ctx context.Context) error {
	select {
	case <-b.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *blockingEngine) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	if err := b.wait(ctx); err != nil {
		return false, err
	}
	return b.Engine.PointQueryContext(ctx, q)
}

// TestAdmissionControl saturates a MaxInFlight=2 server with held-open
// queries and checks that the overflow request is shed with 429 and
// counted, and that capacity recovers after release.
func TestAdmissionControl(t *testing.T) {
	eng, pts := testEngine(t)
	blocking := &blockingEngine{Engine: eng, gate: make(chan struct{})}
	// Each request calls the engine on its own goroutine, so two held
	// gates pin exactly two in-flight slots.
	_, cl := startTestServer(t, Config{Engine: blocking, MaxInFlight: 2})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.PointQuery(context.Background(), pts[0]); err != nil {
				t.Errorf("held query failed: %v", err)
			}
		}()
	}
	// Wait until both requests occupy their slots.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if st.InFlight >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached 2 (now %d)", st.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err := cl.PointQuery(context.Background(), pts[1])
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: got %v, want 429", err)
	}
	close(blocking.gate)
	wg.Wait()

	st, _ := cl.Stats()
	if st.Shed == 0 {
		t.Fatalf("shed counter did not advance: %+v", st)
	}
	if _, err := cl.PointQuery(context.Background(), pts[2]); err != nil {
		t.Fatalf("request after release failed: %v", err)
	}
}

// TestGracefulShutdown checks that Shutdown waits for in-flight queries
// and for a running rolling rebuild before returning.
func TestGracefulShutdown(t *testing.T) {
	eng, pts := testEngine(t)
	s := New(Config{Engine: eng})
	hs := httptest.NewServer(s.Handler())
	cl := NewClient(hs.URL)

	resp, err := http.Post(cl.base+"/v1/rebuild", "application/json", nil)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("rebuild status = %d, want 202", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("rebuild Content-Type = %q", ct)
	}
	// A second trigger while running must 409 (unless the first already
	// finished, which small engines can do).
	if err := cl.Rebuild(context.Background()); err != nil {
		if se, ok := err.(*StatusError); !ok || se.Code != http.StatusConflict {
			t.Fatalf("second rebuild: %v", err)
		}
	}

	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown is idempotent (signal handler plus deferred cleanup).
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	// After Shutdown, the rebuild must have completed and the engine be
	// quiescent and intact.
	if s.rebuildRunning.Load() {
		t.Fatal("Shutdown returned while rebuild still running")
	}
	if found, err := eng.PointQueryContext(context.Background(), pts[0]); err != nil || !found {
		t.Fatal("engine lost data across rebuild + shutdown")
	}
	// Shutdown stopped nothing the request path needs: a request that
	// still reaches the handler (a kept-alive connection racing Shutdown)
	// is answered rather than hung.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/point",
		strings.NewReader(fmt.Sprintf(`{"x":%v,"y":%v}`, pts[0].X, pts[0].Y))))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"found":true`) {
		t.Fatalf("post-shutdown request: %d %s", rec.Code, rec.Body)
	}
}

// TestHistogramQuantiles sanity-checks the quarter-octave estimator.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram should report 0")
	}
	for i := 0; i < 99; i++ {
		h.observe(100 * time.Microsecond)
	}
	h.observe(100 * time.Millisecond)
	p50 := h.quantile(0.50)
	if p50 < 80*time.Microsecond || p50 > 130*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈100µs", p50)
	}
	p99 := h.quantile(0.99)
	if p99 > 130*time.Microsecond {
		t.Fatalf("p99 = %v, want ≤≈100µs", p99)
	}
	p999 := h.quantile(0.999)
	if p999 < 80*time.Millisecond || p999 > 130*time.Millisecond {
		t.Fatalf("p99.9 = %v, want ≈100ms", p999)
	}
	if st := h.stats(); st.Count != 100 || st.P50us == 0 {
		t.Fatalf("stats: %+v", st)
	}
}
