package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rsmi/internal/obs"
	"rsmi/internal/workload"
)

// stageSet maps a trace's stage names for membership checks.
func stageSet(tj *TraceJSON) map[string]float64 {
	out := map[string]float64{}
	for _, st := range tj.Stages {
		out[st.Stage] = st.Us
	}
	return out
}

// TestExplainEquivalenceAcrossTransports asks the same sharded engine
// the same window query with EXPLAIN over HTTP JSON, HTTP binary, and
// the TCP stream, and requires the engine-side observations — shards
// visited, block accesses, backend — to be identical: EXPLAIN must
// describe the query, not the transport that carried it.
func TestExplainEquivalenceAcrossTransports(t *testing.T) {
	eng, pts := testEngine(t)
	_, httpURL, streamAddr := startStreamServer(t, Config{Engine: eng})

	clients := map[string]*Client{
		"http-json":   NewClient(httpURL, WithProto(ProtoJSON)),
		"http-binary": NewClient(httpURL, WithProto(ProtoBinary)),
		"stream":      NewClient(streamAddr, WithTransport(TransportTCP)),
	}
	for _, cl := range clients {
		defer cl.Close()
	}
	names := []string{"http-json", "http-binary", "stream"}

	q := workload.Windows(pts, 1, 0.05, 1, 17)[0]
	ctx := context.Background()

	type obsv struct {
		n        int
		shards   int64
		accesses int64
		backend  string
	}
	got := map[string]obsv{}
	for _, name := range names {
		var tj *TraceJSON
		pts2, err := clients[name].WindowQuery(ctx, q, WithExplain(&tj))
		if err != nil {
			t.Fatalf("%s: WindowQueryExplain: %v", name, err)
		}
		if tj == nil {
			t.Fatalf("%s: no trace returned", name)
		}
		if tj.ID == 0 {
			t.Errorf("%s: trace id is 0", name)
		}
		if tj.ShardsVisited < 1 {
			t.Errorf("%s: shards visited = %d, want >= 1", name, tj.ShardsVisited)
		}
		if tj.BlockAccesses < 1 {
			t.Errorf("%s: block accesses = %d, want >= 1", name, tj.BlockAccesses)
		}
		st := stageSet(tj)
		if _, ok := st["execute"]; !ok {
			t.Errorf("%s: no execute stage in %v", name, tj.Stages)
		}
		got[name] = obsv{n: len(pts2), shards: tj.ShardsVisited, accesses: tj.BlockAccesses, backend: tj.Backend}
	}
	ref := got[names[0]]
	for _, name := range names[1:] {
		if got[name] != ref {
			t.Errorf("EXPLAIN diverges across transports: %s = %+v, %s = %+v", names[0], ref, name, got[name])
		}
	}

	// The JSON HTTP path traces from arrival, so admission and decode
	// spans are present there (binary EXPLAIN upgrades the trace after
	// body decode — its earlier spans are absent by design).
	var tj *TraceJSON
	_, err := clients["http-json"].WindowQuery(ctx, q, WithExplain(&tj))
	if err != nil {
		t.Fatal(err)
	}
	st := stageSet(tj)
	for _, want := range []string{"admission", "decode", "execute", "encode"} {
		if _, ok := st[want]; !ok {
			t.Errorf("http-json EXPLAIN missing %s stage: %v", want, tj.Stages)
		}
	}

	// kNN EXPLAIN agrees across transports too.
	kq := pts[7]
	kref := obsv{}
	for i, name := range names {
		var tj *TraceJSON
		res, err := clients[name].KNN(ctx, kq, 5, WithExplain(&tj))
		if err != nil || tj == nil {
			t.Fatalf("%s: KNNExplain: %v (trace %v)", name, err, tj)
		}
		o := obsv{n: len(res), shards: tj.ShardsVisited, accesses: tj.BlockAccesses, backend: tj.Backend}
		if i == 0 {
			kref = o
		} else if o != kref {
			t.Errorf("kNN EXPLAIN diverges: %s = %+v, ref = %+v", name, o, kref)
		}
	}

	// Point EXPLAIN: answer and trace on all transports.
	for _, name := range names {
		var tj *TraceJSON
		found, err := clients[name].PointQuery(ctx, pts[3], WithExplain(&tj))
		if err != nil || !found || tj == nil {
			t.Fatalf("%s: PointQueryExplain = %v, %v, trace %v", name, found, err, tj)
		}
	}
}

// TestExplainOnlyWhenAsked: without the explain flag no trace rides the
// response on any transport, even when the server samples every request.
func TestExplainOnlyWhenAsked(t *testing.T) {
	eng, pts := testEngine(t)
	_, httpURL, streamAddr := startStreamServer(t, Config{
		Engine:   eng,
		Observer: obs.NewObserver(1, nil),
	})
	for name, cl := range map[string]*Client{
		"http-json":   NewClient(httpURL, WithProto(ProtoJSON)),
		"http-binary": NewClient(httpURL, WithProto(ProtoBinary)),
		"stream":      NewClient(streamAddr, WithTransport(TransportTCP)),
	} {
		found, err := cl.PointQuery(context.Background(), pts[0])
		if err != nil || !found {
			t.Fatalf("%s: PointQuery = %v, %v", name, found, err)
		}
		cl.Close()
	}
	// JSON response body carries no trace field.
	body, _ := json.Marshal(PointJSON{X: pts[0].X, Y: pts[0].Y})
	resp, err := http.Post(httpURL+"/v1/point", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(raw), "trace") {
		t.Errorf("untraced response leaked a trace: %s", raw)
	}
}

// TestReadyz covers the readiness contract: standalone servers and
// primaries are always ready; a replica is ready only when bootstrapped,
// connected, and within ReadyMaxLag of the primary.
func TestReadyz(t *testing.T) {
	eng, _ := testEngine(t)

	t.Run("standalone", func(t *testing.T) {
		s := New(Config{Engine: eng})
		defer s.Shutdown(context.Background())
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
		}
	})

	t.Run("replica-not-bootstrapped", func(t *testing.T) {
		rep := NewReplica("127.0.0.1:1", ReplicaOptions{Timeout: time.Second})
		if ready, reason := rep.Ready(0); ready || !strings.Contains(reason, "bootstrapped") {
			t.Fatalf("Ready = %v, %q; want not bootstrapped", ready, reason)
		}
		s := New(Config{Engine: eng, Replica: rep})
		defer s.Shutdown(context.Background())
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/readyz = %d, want 503", resp.StatusCode)
		}
		if !strings.Contains(string(body), "not ready") {
			t.Fatalf("/readyz body %q lacks a reason", body)
		}
	})

	// healthz stays pure liveness: it answers 200 even when not ready.
	t.Run("healthz-liveness", func(t *testing.T) {
		rep := NewReplica("127.0.0.1:1", ReplicaOptions{Timeout: time.Second})
		s := New(Config{Engine: eng, Replica: rep})
		defer s.Shutdown(context.Background())
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d, want 200 (liveness, not readiness)", resp.StatusCode)
		}
	})
}

// TestSlowQueryLogEndToEnd drives a server whose Observer has a
// zero-threshold slow-query log and checks the JSON lines carry the
// full stage breakdown.
func TestSlowQueryLogEndToEnd(t *testing.T) {
	eng, pts := testEngine(t)
	var buf syncBuffer
	sl := obs.NewSlowLog(&buf, 0, 1e9)
	s := New(Config{Engine: eng, Observer: obs.NewObserver(0, sl)})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Shutdown(context.Background())
	cl := NewClient(hs.URL)
	defer cl.Close()

	q := workload.Windows(pts, 1, 0.05, 1, 3)[0]
	if _, err := cl.WindowQuery(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PointQuery(context.Background(), pts[0]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("slow log has %d lines, want >= 2: %q", len(lines), buf.String())
	}
	var rec obs.SlowLogRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("slow log line not JSON: %v: %q", err, lines[0])
	}
	if rec.Op != OpWindow {
		t.Errorf("first record op = %q, want %q", rec.Op, OpWindow)
	}
	if rec.Transport != "http" {
		t.Errorf("record transport = %q, want http", rec.Transport)
	}
	if rec.TotalUs <= 0 || rec.ExecuteUs <= 0 {
		t.Errorf("record lacks timings: %+v", rec)
	}
	if rec.ShardsVisited < 1 {
		t.Errorf("record shards visited = %d, want >= 1", rec.ShardsVisited)
	}
	if sl.Logged() < 2 {
		t.Errorf("Logged() = %d, want >= 2", sl.Logged())
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
