package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/wire"
	"rsmi/internal/workload"
)

// startStreamServer serves cfg over both HTTP (httptest) and a stream
// listener, returning the HTTP base URL and the stream address.
func startStreamServer(t *testing.T, cfg Config) (*Server, string, string) {
	t.Helper()
	return serveStreamServer(t, New(cfg))
}

// serveStreamServer serves s as startStreamServer does, for tests that
// set an unexported field of s before it serves.
func serveStreamServer(t *testing.T, s *Server) (*Server, string, string) {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeStream(l)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, hs.URL, l.Addr().String()
}

// TestStreamProtocolEquivalence drives one server with an HTTP JSON
// client, an HTTP binary client, and a TCP stream client, and requires
// identical answers for identical queries across all three — the stream
// transport must change the framing, never the semantics.
func TestStreamProtocolEquivalence(t *testing.T) {
	eng, pts := testEngine(t)
	_, httpURL, streamAddr := startStreamServer(t, Config{Engine: eng})
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
	if tr := clients["tcp-stream"].Transport(); tr != TransportTCP {
		t.Fatalf("stream client transport = %q", tr)
	}

	// Point queries: hits and misses.
	for _, p := range []geom.Point{pts[0], pts[99], geom.Pt(-3, -3)} {
		want, err := clients["http-json"].PointQuery(context.Background(), p)
		if err != nil {
			t.Fatalf("json PointQuery: %v", err)
		}
		for name, cl := range clients {
			got, err := cl.PointQuery(context.Background(), p)
			if err != nil || got != want {
				t.Fatalf("%s PointQuery(%v) = %v, %v; want %v", name, p, got, err, want)
			}
		}
	}

	// Windows: exact same point lists, order included.
	for _, q := range workload.Windows(pts, 10, 0.01, 1, 64) {
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
					t.Fatalf("%s WindowQuery point %d: %v vs %v", name, i, got[i], want[i])
				}
			}
		}
	}

	// kNN, including the k<=0 edge every transport must answer empty.
	for _, k := range []int{-1, 0, 1, 7} {
		want, err := clients["http-json"].KNN(context.Background(), pts[5], k)
		if err != nil {
			t.Fatalf("json KNN: %v", err)
		}
		for name, cl := range clients {
			got, err := cl.KNN(context.Background(), pts[5], k)
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

	// Writes over the stream are visible over HTTP and vice versa.
	ps := geom.Pt(0.41421, 0.73205)
	if err := clients["tcp-stream"].Insert(context.Background(), ps); err != nil {
		t.Fatalf("stream Insert: %v", err)
	}
	if found, _ := clients["http-json"].PointQuery(context.Background(), ps); !found {
		t.Fatal("stream insert not visible over HTTP JSON")
	}
	if deleted, _ := clients["http-binary"].Delete(context.Background(), ps); !deleted {
		t.Fatal("HTTP delete of stream insert failed")
	}
	if found, _ := clients["tcp-stream"].PointQuery(context.Background(), ps); found {
		t.Fatal("HTTP delete not visible over the stream")
	}

	// Heterogeneous batches give identical result lists.
	win := geom.RectAround(pts[3], 0.1, 0.1)
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
			if got[i].Found != want[i].Found || got[i].OK != want[i].OK ||
				got[i].Deleted != want[i].Deleted || got[i].Count != want[i].Count ||
				len(got[i].Points) != len(want[i].Points) {
				t.Fatalf("%s batch result %d: %+v vs %+v", name, i, got[i], want[i])
			}
			for j := range want[i].Points {
				if got[i].Points[j] != want[i].Points[j] {
					t.Fatalf("%s batch result %d point %d differs", name, i, j)
				}
			}
		}
	}

	// Semantically invalid requests surface as *wire.StatusError with HTTP
	// codes over the stream too, and the connection stays usable.
	if _, err := clients["tcp-stream"].WindowQuery(context.Background(), geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}); err == nil {
		t.Fatal("inverted window accepted over the stream")
	} else if se, ok := err.(*wire.StatusError); !ok || se.Code != 400 {
		t.Fatalf("inverted window over the stream: %v", err)
	}
	if found, err := clients["tcp-stream"].PointQuery(context.Background(), pts[0]); err != nil || !found {
		t.Fatalf("stream connection unusable after a 400: %v, %v", found, err)
	}

	// The stream traffic shows up in the shared serving stats.
	st, err := clients["http-json"].Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Ops[OpPoint].Count == 0 || st.Ops["batch"].Count == 0 {
		t.Fatalf("stream requests missing from op stats: %+v", st.Ops)
	}

	// Control-plane calls on a TCP-only client fail loudly, not silently.
	if _, err := clients["tcp-stream"].Stats(); err == nil {
		t.Fatal("Stats over a TCP-only client succeeded")
	}
}

// TestStreamPipelinedConcurrent hammers one stream client (a small pool,
// so many goroutines pipeline on shared connections) with queries whose
// answers are known per goroutine, verifying responses are matched to the
// right caller. Run under -race in CI.
func TestStreamPipelinedConcurrent(t *testing.T) {
	eng, pts := testEngine(t)
	_, _, streamAddr := startStreamServer(t, Config{Engine: eng})
	cl := NewClient(streamAddr, WithTransport(TransportTCP), WithStreamConns(2))
	defer cl.Close()

	const goroutines = 16
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					// Indexed point: must be found.
					p := pts[(g*perG+i)%len(pts)]
					found, err := cl.PointQuery(context.Background(), p)
					if err != nil || !found {
						errs <- fmt.Errorf("g%d i%d: PointQuery(indexed) = %v, %v", g, i, found, err)
						return
					}
				} else {
					// Absent point: must not be found.
					p := geom.Pt(-1-float64(g), -1-float64(i))
					found, err := cl.PointQuery(context.Background(), p)
					if err != nil || found {
						errs <- fmt.Errorf("g%d i%d: PointQuery(absent) = %v, %v", g, i, found, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamMalformedFrames exercises the frame-level error surface with
// raw connections: request-level garbage answers an error and keeps the
// connection; frame-level garbage closes it; and a server that saw a
// broken connection keeps serving new ones.
func TestStreamMalformedFrames(t *testing.T) {
	eng, pts := testEngine(t)
	_, _, streamAddr := startStreamServer(t, Config{Engine: eng})

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", streamAddr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	reqs := pending{}
	point := BatchOp{Op: OpPoint, X: pts[0].X, Y: pts[0].Y}

	// Request-level garbage (bad rsmibin magic): status-1 response with
	// code 400, connection stays alive for a valid follow-up.
	c := dial()
	defer c.Close()
	bad := pending{}.frame(t, 7, false, point)
	bad[5] = 'X' // after the length word and the one-byte id: the magic
	if _, err := c.Write(bad); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	id, payload, err := wire.ReadStreamFrame(br, streamMaxResponseFrame, nil)
	if err != nil || id != 7 {
		t.Fatalf("error response: id=%d err=%v", id, err)
	}
	if _, _, rerr := wire.DecodeStreamResponse(payload, nil); rerr == nil {
		t.Fatal("bad magic did not produce an error response")
	} else if se, ok := rerr.(*wire.StatusError); !ok || se.Code != 400 {
		t.Fatalf("bad magic error = %v, want a status-1 code 400", rerr)
	}
	// Follow-up valid request on the same connection.
	if _, err := c.Write(reqs.frame(t, 8, false, point)); err != nil {
		t.Fatal(err)
	}
	if rs := readAnswers(t, c, br, reqs, 1)[8]; len(rs) != 1 || !rs[0].Flag {
		t.Fatalf("follow-up answer: %+v", rs)
	}

	// Frame-level garbage: an oversized declared length closes the
	// connection.
	c2 := dial()
	defer c2.Close()
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], streamMaxRequestFrame+1)
	if _, err := c2.Write(huge[:]); err != nil {
		t.Fatal(err)
	}
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c2); err != nil {
		t.Fatalf("oversized frame: connection not closed cleanly: %v", err)
	}

	// A zero-length frame closes the connection too.
	c3 := dial()
	defer c3.Close()
	if _, err := c3.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c3); err != nil {
		t.Fatalf("empty frame: connection not closed cleanly: %v", err)
	}

	// The server still serves fresh connections afterwards.
	cl := NewClient(streamAddr, WithTransport(TransportTCP))
	defer cl.Close()
	if found, err := cl.PointQuery(context.Background(), pts[0]); err != nil || !found {
		t.Fatalf("server unusable after malformed connections: %v, %v", found, err)
	}
}

// TestStreamMidRequestDisconnect writes half a frame and disconnects; the
// server must drop the connection without executing anything and keep
// serving others.
func TestStreamMidRequestDisconnect(t *testing.T) {
	eng, pts := testEngine(t)
	_, _, streamAddr := startStreamServer(t, Config{Engine: eng})

	c, err := net.Dial("tcp", streamAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Declare a 100-byte frame, send 10 bytes, vanish.
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], 100)
	if _, err := c.Write(lb[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Another client is unaffected.
	cl := NewClient(streamAddr, WithTransport(TransportTCP))
	defer cl.Close()
	if found, err := cl.PointQuery(context.Background(), pts[0]); err != nil || !found {
		t.Fatalf("server unusable after mid-request disconnect: %v, %v", found, err)
	}
}

// TestStreamShutdownDrains checks that Shutdown answers stream requests
// already read before closing their connection, exactly like HTTP
// draining.
func TestStreamShutdownDrains(t *testing.T) {
	eng, pts := testEngine(t)
	gate := make(chan struct{})
	blocking := &blockingEngine{Engine: eng, gate: gate}
	s := New(Config{Engine: blocking})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeStream(l)

	cl := NewClient(l.Addr().String(), WithTransport(TransportTCP))
	defer cl.Close()
	type answer struct {
		found bool
		err   error
	}
	res := make(chan answer, 1)
	go func() {
		found, err := cl.PointQuery(context.Background(), pts[0])
		res <- answer{found, err}
	}()
	// A second connection gets two windows and a point in one write: the
	// windows' answers are queued behind the point, which is held on that
	// connection's read loop when Shutdown arrives.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	reqs := pending{}
	burst := reqs.frame(t, 1, false, BatchOp{Op: OpWindow, MaxX: 0.1, MaxY: 0.1})
	burst = append(burst, reqs.frame(t, 2, false, BatchOp{Op: OpWindow, MaxX: 0.2, MaxY: 0.2})...)
	burst = append(burst, reqs.frame(t, 3, false, BatchOp{Op: OpPoint, X: pts[1].X, Y: pts[1].Y})...)
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	// Wait until both points are admitted and blocked in the engine.
	deadline := time.Now().Add(5 * time.Second)
	for s.inFlight.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("stream request never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to reach the drain, then release the engine.
	time.Sleep(20 * time.Millisecond)
	close(gate)

	a := <-res
	if a.err != nil || !a.found {
		t.Fatalf("in-flight stream request during shutdown: %v, %v", a.found, a.err)
	}
	rawBr := bufio.NewReader(raw)
	if got := readAnswers(t, raw, rawBr, reqs, 3); !got[3][0].Flag || len(got[1][0].Pts) > len(got[2][0].Pts) {
		t.Fatalf("answers drained from the second connection: %+v", got)
	}
	if _, err := rawBr.ReadByte(); err != io.EOF {
		t.Fatalf("after its answers the drained connection gave %v, want EOF", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// New connections are refused after shutdown.
	cl2 := NewClient(l.Addr().String(), WithTransport(TransportTCP), WithTimeout(time.Second))
	defer cl2.Close()
	if _, err := cl2.PointQuery(context.Background(), pts[0]); err == nil {
		t.Fatal("request succeeded after stream shutdown")
	}
}

// TestStreamClientTimeout pins the configurable-timeout option on the
// stream path: a server that never answers must fail the request after
// Options.Timeout, not after the old hard-coded 30 s.
func TestStreamClientTimeout(t *testing.T) {
	eng, pts := testEngine(t)
	blocking := &blockingEngine{Engine: eng, gate: make(chan struct{})}
	_, _, streamAddr := startStreamServer(t, Config{Engine: blocking})
	cl := NewClient(streamAddr, WithTransport(TransportTCP), WithTimeout(100*time.Millisecond))
	defer cl.Close()
	start := time.Now()
	_, err := cl.PointQuery(context.Background(), pts[0])
	if err == nil {
		t.Fatal("blocked request did not time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ≈100ms", elapsed)
	}
	close(blocking.gate) // release the handler so Shutdown can drain
}

// TestStreamAnswerMismatchFailsOneCall: a well-formed answer that does
// not fit its request — a points result for a point query, two results for
// one op — fails that call with wire.ErrMismatch and nothing else. The
// frame was read whole, so the connection stays in step: the next call
// on it succeeds, and the client never redials.
func TestStreamAnswerMismatchFailsOneCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var accepts atomic.Int64
	answers := [][]wire.Result{
		{{Op: OpWindow, Pts: []geom.Point{geom.Pt(0.5, 0.5)}}},
		{{Op: OpPoint, Flag: true}, {Op: OpPoint, Flag: true}},
		{{Op: OpPoint, Flag: true}},
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for _, rs := range answers {
					id, _, err := wire.ReadStreamFrame(br, 1<<20, nil)
					if err != nil {
						return
					}
					b := wire.OpenStreamFrame(nil, id)
					b = wire.AppendStreamAnswers(b, rs, nil)
					wire.CloseFrame(b, 0)
					if _, err := c.Write(b); err != nil {
						return
					}
				}
				io.Copy(io.Discard, c)
			}()
		}
	}()
	cl := NewClient(l.Addr().String(), WithTransport(TransportTCP), WithStreamConns(1))
	defer cl.Close()
	for i := range answers {
		found, err := cl.PointQuery(context.Background(), geom.Pt(0.5, 0.5))
		switch last := i == len(answers)-1; {
		case last && (err != nil || !found):
			t.Fatalf("answer %d: %v, %v after the mismatches, want found", i, found, err)
		case !last && !errors.Is(err, wire.ErrMismatch):
			t.Fatalf("answer %d: %v, want wire.ErrMismatch", i, err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("client dialled %d connections, want 1: a mismatch poisoned the connection", n)
	}
}

// TestStreamFrameAllocFollowsBytes checks that wire.ReadStreamFrame commits
// memory as payload arrives, not on the length prefix's say-so: five bytes
// declaring an 8 MiB frame fail as truncated having allocated next to
// nothing, and a frame larger than the read buffer still reads back whole.
func TestStreamFrameAllocFollowsBytes(t *testing.T) {
	claim := []byte{0, 0, 0, 0, 1}
	binary.LittleEndian.PutUint32(claim, streamMaxRequestFrame)
	br := bufio.NewReader(bytes.NewReader(claim))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := wire.ReadStreamFrame(br, streamMaxRequestFrame, nil)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("8 MiB claim with 1 payload byte: err = %v, want truncated frame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("a 5-byte input made the reader allocate %d bytes, want < 256 KiB", got)
	}

	payload := make([]byte, 5*wire.ReadChunk+123) // neither a power of two nor a step boundary
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frame := append(wire.OpenStreamFrame(nil, 77), payload...)
	wire.CloseFrame(frame, 0)
	id, got, err := wire.ReadStreamFrame(bufio.NewReader(bytes.NewReader(frame)), streamMaxRequestFrame, nil)
	if err != nil || id != 77 || !bytes.Equal(got, payload) {
		t.Fatalf("large frame: id %d, %d payload bytes, err %v", id, len(got), err)
	}
	if _, _, err := wire.ReadStreamFrame(bufio.NewReader(bytes.NewReader(frame[:len(frame)-1])), streamMaxRequestFrame, nil); err == nil {
		t.Fatal("large frame one byte short read without error")
	}
}

// pending holds the ops of each stream request a test has framed and not
// yet read the answer to, by request id.
type pending map[uint64][]BatchOp

// frame encodes one stream request frame and records its ops.
func (p pending) frame(t testing.TB, id uint64, explain bool, ops ...BatchOp) []byte {
	t.Helper()
	b, err := wire.AppendOps(wire.OpenStreamFrame(nil, id), ops, false, explain)
	if err != nil {
		t.Fatal(err)
	}
	wire.CloseFrame(b, 0)
	p[id] = ops
	return b
}

// readAnswers reads n response frames and returns their results by
// request id, each decoded against the ops reqs holds for it, which it
// then forgets. It fails on a status-1 frame, an id that is not pending
// (an answer given twice among them) or a stall.
func readAnswers(t *testing.T, c net.Conn, br *bufio.Reader, reqs pending, n int) map[uint64][]wire.Result {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make(map[uint64][]wire.Result, n)
	for len(got) < n {
		id, payload, err := wire.ReadStreamFrame(br, streamMaxResponseFrame, nil)
		if err != nil {
			t.Fatalf("after %d of %d answers: %v", len(got), n, err)
		}
		ops, ok := reqs[id]
		if !ok {
			t.Fatalf("request %d answered, but none is pending", id)
		}
		delete(reqs, id)
		rs, _, err := wire.DecodeStreamResponse(payload, ops)
		if err != nil {
			t.Fatalf("request %d: %v", id, err)
		}
		got[id] = rs
	}
	return got
}

// countingConn counts the writes that reach the connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// servePipe serves one end of an in-memory pipe as a stream connection of
// s and returns the other end, the server end's write counter and the
// connection's state. A pipe hands a whole client Write to the server's
// one Read, so what the read loop finds buffered is exactly what the test
// wrote: the group-commit decisions are deterministic.
func servePipe(t *testing.T, s *Server) (net.Conn, *countingConn, *streamServerConn) {
	t.Helper()
	client, server := net.Pipe()
	cc := &countingConn{Conn: server}
	c := s.newStreamServerConn(cc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		c.serve()
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	return client, cc, c
}

// TestStreamGroupCommit pins the flush rule: a lone frame is answered in
// one write and not held back; frames that arrived together are answered
// in exactly one write, EXPLAIN bit or not; a burst whose answers pass
// streamFlushBytes leaves in more than one.
func TestStreamGroupCommit(t *testing.T) {
	eng, pts := testEngine(t)
	s := New(Config{Engine: eng})
	defer s.Shutdown(context.Background())
	client, srv, _ := servePipe(t, s)
	br := bufio.NewReader(client)
	point := func(p geom.Point) BatchOp { return BatchOp{Op: OpPoint, X: p.X, Y: p.Y} }
	reqs := pending{}

	if _, err := client.Write(reqs.frame(t, 1, false, point(pts[0]))); err != nil {
		t.Fatal(err)
	}
	if rs := readAnswers(t, client, br, reqs, 1)[1]; len(rs) != 1 || !rs[0].Flag {
		t.Fatalf("lone frame: %+v", rs)
	}
	if w := srv.writes.Load(); w != 1 {
		t.Fatalf("lone frame answered in %d writes, want 1", w)
	}

	// Sixteen frames in one client write leave in exactly one server write —
	// unless the box took the loop's CPU away for a whole budget inside the
	// burst: that is a takeover, the rest of the burst is handed off, and
	// the burst is sent again once the connection is back to serving inline.
	const n = 16
	var burst []byte
	sentFrames := int64(1)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		before := srv.writes.Load()
		burst = burst[:0]
		for i := 0; i < n; i++ {
			p := pts[i]
			if i%2 == 1 {
				p = geom.Pt(-1, -float64(i)) // absent
			}
			burst = append(burst, reqs.frame(t, uint64(100+i), i%5 == 0, point(p))...)
		}
		if _, err := client.Write(burst); err != nil {
			t.Fatal(err)
		}
		sentFrames += n
		got := readAnswers(t, client, br, reqs, n)
		for i := 0; i < n; i++ {
			rs, ok := got[uint64(100+i)]
			if !ok || len(rs) != 1 || rs[0].Flag != (i%2 == 0) {
				t.Fatalf("burst frame %d: %+v (answered %v)", i, rs, ok)
			}
		}
		w := srv.writes.Load() - before
		if w == 1 {
			break
		}
		if s.streamTakeovers.Load() == 0 || time.Now().After(deadline) {
			t.Fatalf("%d frames in one client write answered in %d server writes, want 1 (%d takeovers)", n, w, s.streamTakeovers.Load())
		}
	}

	// Six whole-space windows: ~32 KB of answer each, so the queue passes
	// the byte cap inside the burst.
	before := srv.writes.Load()
	burst = burst[:0]
	for i := 0; i < 6; i++ {
		burst = append(burst, reqs.frame(t, uint64(200+i), false, BatchOp{Op: OpWindow, MaxX: 1, MaxY: 1})...)
	}
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	for id, rs := range readAnswers(t, client, br, reqs, 6) {
		if len(rs) != 1 || len(rs[0].Pts)*16 < streamFlushBytes/3 {
			t.Fatalf("window %d: %d points, too few to pass the cap in three answers", id, len(rs[0].Pts))
		}
	}
	if w := srv.writes.Load() - before; w < 2 {
		t.Fatalf("six ~32 KB answers left in %d writes, want more than one", w)
	}
	if st := s.streamStats(); st.Frames != sentFrames+6 || st.Flushes != srv.writes.Load() {
		t.Fatalf("stats %+v, want %d frames in %d flushes", st, sentFrames+6, srv.writes.Load())
	}
}

// TestStreamTakeover blocks a frame on the read loop with four windows
// buffered behind it: the windows are answered while the frame is still
// held, its answer arrives once it is released, and the connection then
// goes back to serving — and grouping — inline. The held frame is a point
// query, then a batch whose second op is that point: a batch starts on the
// loop like any frame and is taken over like one.
func TestStreamTakeover(t *testing.T) {
	eng, pts := testEngine(t)
	held := BatchOp{Op: OpPoint, X: pts[0].X, Y: pts[0].Y}
	for _, ops := range [][]BatchOp{{held}, {{Op: OpWindow, MaxX: 0.1, MaxY: 0.1}, held}} {
		t.Run(fmt.Sprintf("ops=%d", len(ops)), func(t *testing.T) {
			blocking := &blockingEngine{Engine: eng, gate: make(chan struct{})}
			s := New(Config{Engine: blocking})
			defer s.Shutdown(context.Background())
			client, srv, _ := servePipe(t, s)
			br := bufio.NewReader(client)

			reqs := pending{}
			burst := reqs.frame(t, 1, false, ops...)
			for id := uint64(2); id <= 5; id++ {
				burst = append(burst, reqs.frame(t, id, false, BatchOp{Op: OpWindow, MaxX: 0.1, MaxY: 0.1})...)
			}
			if _, err := client.Write(burst); err != nil {
				t.Fatal(err)
			}
			got := readAnswers(t, client, br, reqs, 4)
			if _, early := got[1]; early {
				t.Fatal("the held frame answered")
			}
			// At least the held frame's: a deschedule longer than the budget
			// inside any other inline frame is a takeover too.
			if n := s.streamTakeovers.Load(); n < 1 {
				t.Fatalf("%d takeovers, want at least 1", n)
			}
			close(blocking.gate)
			if rs := readAnswers(t, client, br, reqs, 1)[1]; len(rs) != len(ops) || !rs[len(rs)-1].Flag {
				t.Fatalf("taken-over frame's answer: %+v", rs)
			}

			// readAnswers returns when the answer is read, which is before the
			// frame's goroutine has given back its token; the loop serves
			// inline again only after that.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				before := srv.writes.Load()
				burst = burst[:0]
				for id := uint64(10); id < 13; id++ {
					burst = append(burst, reqs.frame(t, id, false, BatchOp{Op: OpPoint, X: pts[1].X, Y: pts[1].Y})...)
				}
				if _, err := client.Write(burst); err != nil {
					t.Fatal(err)
				}
				readAnswers(t, client, br, reqs, 3)
				if srv.writes.Load()-before == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("connection never went back to answering a burst in one write")
				}
			}
		})
	}
}

// TestStreamTakeoverAtAnyMoment fires the watchdog's function every few
// microseconds, whatever the read loop is doing, while eight callers
// pipeline on the connection: a fire that lands inside an inline frame is
// a takeover (an early one), any other must do nothing, and at no point
// may two goroutines own the reader. Run under -race in CI; the check
// here is that every answer is the right one.
func TestStreamTakeoverAtAnyMoment(t *testing.T) {
	eng, pts := testEngine(t)
	s := New(Config{Engine: eng})
	defer s.Shutdown(context.Background())
	client, _, c := servePipe(t, s)

	stop := make(chan struct{})
	var fires sync.WaitGroup
	fires.Add(1)
	go func() {
		defer fires.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fires.Add(1)
			go func() {
				defer fires.Done()
				c.takeover()
			}()
			time.Sleep(20 * time.Microsecond)
		}
	}()

	// The client side of the pipe is the package's own pipelining
	// connection: it matches answers to callers by request id.
	sc := &streamConn{
		c:         client,
		timeout:   10 * time.Second,
		pending:   make(map[uint64]streamCall),
		abandoned: make(map[uint64]struct{}),
	}
	go sc.readLoop()
	const callers, perCaller = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				n := g*perCaller + i
				p, want := pts[n%len(pts)], true
				if i%3 == 0 {
					p, want = geom.Pt(-1, -float64(n)), false
				}
				ops := []BatchOp{{Op: OpPoint, X: p.X, Y: p.Y}}
				rs, _, err := sc.roundTrip(context.Background(), ops, func(b []byte) ([]byte, error) {
					return wire.AppendOps(b, ops, false, false)
				})
				if err != nil || len(rs) != 1 || rs[0].Flag != want {
					t.Errorf("caller %d request %d: answer %+v, %v; want found=%v", g, i, rs, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sc.fail(errStreamClientClosed) // closes the pipe: a fire that took the loop is still running it
	fires.Wait()
	t.Logf("%d of the fires were takeovers", s.streamTakeovers.Load())
}

// TestStreamPeerNotReading is the connection's back-pressure: a peer that
// pipelines whole-space windows and reads no answer gets the byte cap plus
// one answer per pipeline token buffered for it, and then the server stops
// reading its frames — until it reads again, when every frame it sent is
// answered.
func TestStreamPeerNotReading(t *testing.T) {
	eng, pts := testEngine(t)
	s := New(Config{Engine: eng})
	defer s.Shutdown(context.Background())
	client, _, c := servePipe(t, s)

	const total = 3 * streamMaxPipeline
	reqs := pending{}
	frames := make([][]byte, total)
	for i := range frames {
		frames[i] = reqs.frame(t, uint64(i+1), false, BatchOp{Op: OpWindow, MaxX: 1, MaxY: 1})
	}
	var sent atomic.Int64
	go func() {
		for _, frame := range frames {
			if _, err := client.Write(frame); err != nil {
				return
			}
			sent.Add(1)
		}
	}()
	// The first answer's write never returns and its frame loses the loop;
	// later frames queue their answers up to the cap, and past it wait for
	// that writer — handed-off frames with a token in hand, the loop without
	// reading. Wait for the sender to stop making progress.
	stalledAt := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(50 * streamInlineBudget)
		n := sent.Load()
		if n == stalledAt {
			break
		}
		if stalledAt = n; time.Now().After(deadline) {
			t.Fatalf("read loop still taking frames (%d) from a peer that reads nothing", n)
		}
	}
	if stalledAt == 0 || stalledAt > streamMaxPipeline+8 {
		t.Fatalf("read loop took %d of %d frames from a peer that reads nothing; want it stalled within %d", stalledAt, total, streamMaxPipeline)
	}
	answer := 16*len(pts) + 64
	c.sw.mu.Lock()
	queued := len(c.sw.queue)
	c.sw.mu.Unlock()
	if limit := streamFlushBytes + (streamMaxPipeline+1)*answer; queued > limit {
		t.Fatalf("%d bytes queued for a peer that reads nothing, want at most %d", queued, limit)
	}

	for id, rs := range readAnswers(t, client, bufio.NewReader(client), reqs, total) {
		if len(rs) != 1 || len(rs[0].Pts) != len(pts) {
			t.Fatalf("window %d after the stall: %d results", id, len(rs))
		}
	}
}

// TestStreamHandshakeBehindFrames sends two point queries and a replication
// handshake in one write. The feed writes to the socket itself, so the two
// queued answers must be on the wire before its first frame (here a resync,
// the handshake naming an epoch the primary is not in).
func TestStreamHandshakeBehindFrames(t *testing.T) {
	eng, pts := testEngine(t)
	repl := NewReplicator(eng)
	s := New(Config{Engine: repl.Engine(), Replicator: repl})
	defer s.Shutdown(context.Background())
	client, _, _ := servePipe(t, s)
	br := bufio.NewReader(client)

	reqs := pending{}
	burst := reqs.frame(t, 1, false, BatchOp{Op: OpPoint, X: pts[0].X, Y: pts[0].Y})
	burst = append(burst, reqs.frame(t, 2, false, BatchOp{Op: OpPoint, X: pts[1].X, Y: pts[1].Y})...)
	hs := wire.AppendFeedHandshake(wire.OpenStreamFrame(nil, 0), repl.log.epoch+1, 1)
	wire.CloseFrame(hs, 0)
	if _, err := client.Write(append(burst, hs...)); err != nil {
		t.Fatal(err)
	}
	for id, rs := range readAnswers(t, client, br, reqs, 2) {
		if len(rs) != 1 || !rs[0].Flag {
			t.Fatalf("point %d ahead of the handshake: %+v", id, rs)
		}
	}
	var lb [4]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, binary.LittleEndian.Uint32(lb[:]))
	if _, err := io.ReadFull(br, frame); err != nil {
		t.Fatal(err)
	}
	if !wire.IsFeedHandshake(frame) || frame[3] != wire.FeedResync {
		t.Fatalf("after the answers: % x, want the feed's resync frame", frame)
	}
}

// TestStreamHandshakeAfterHandedOffFrame: a point frame held in the engine
// past the inline budget loses the read loop to a takeover, and the
// replication handshake read behind it must not overtake its answer.
// Nothing leaves while the point is held; then its answer, then the feed's
// resync frame.
func TestStreamHandshakeAfterHandedOffFrame(t *testing.T) {
	eng, pts := testEngine(t)
	repl := NewReplicator(eng)
	blocking := &blockingEngine{Engine: repl.Engine(), gate: make(chan struct{})}
	s := New(Config{Engine: blocking, Replicator: repl})
	defer s.Shutdown(context.Background())
	client, _, _ := servePipe(t, s)
	br := bufio.NewReader(client)

	hs := wire.AppendFeedHandshake(wire.OpenStreamFrame(nil, 0), repl.log.epoch+1, 1)
	wire.CloseFrame(hs, 0)
	reqs := pending{}
	point := reqs.frame(t, 1, false, BatchOp{Op: OpPoint, X: pts[0].X, Y: pts[0].Y})
	if _, err := client.Write(append(point, hs...)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.streamTakeovers.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held point never lost the read loop")
		}
	}
	client.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if b, err := br.Peek(1); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("with the point held the server wrote % x (%v), want nothing", b, err)
	}
	close(blocking.gate)
	if rs := readAnswers(t, client, br, reqs, 1)[1]; len(rs) != 1 || !rs[0].Flag {
		t.Fatalf("held point: %+v", rs)
	}
	var lb [4]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, binary.LittleEndian.Uint32(lb[:]))
	if _, err := io.ReadFull(br, frame); err != nil {
		t.Fatal(err)
	}
	if !wire.IsFeedHandshake(frame) || frame[3] != wire.FeedResync {
		t.Fatalf("after the answer: % x, want the feed's resync frame", frame)
	}
}

// TestStreamSlowFrameDoesNotBlock is the no-head-of-line guarantee on one
// connection: with a point query held in the engine, a hundred windows
// sent after it are each answered promptly — the first may wait out the
// inline budget, none waits for the point.
func TestStreamSlowFrameDoesNotBlock(t *testing.T) {
	eng, pts := testEngine(t)
	blocking := &blockingEngine{Engine: eng, gate: make(chan struct{})}
	s, _, streamAddr := startStreamServer(t, Config{Engine: blocking})
	cl := NewClient(streamAddr, WithTransport(TransportTCP), WithStreamConns(1))
	defer cl.Close()

	held := make(chan error, 1)
	go func() {
		found, err := cl.PointQuery(context.Background(), pts[0])
		if err == nil && !found {
			err = fmt.Errorf("held point query: not found")
		}
		held <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); s.inFlight.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("point query never reached the engine")
		}
	}
	const windows = 100
	start := time.Now()
	for _, q := range workload.Windows(pts, windows, 0.01, 1, 5) {
		if _, err := cl.WindowQuery(context.Background(), q); err != nil {
			t.Fatalf("window behind the held point: %v", err)
		}
	}
	elapsed := time.Since(start)
	t.Logf("%d windows behind a held point: %v", windows, elapsed)
	// One budget for the takeover, then a hundred ordinary round trips.
	// The failure this guards against is a budget per frame behind the held
	// one, so that is the bound.
	if limit := windows * streamInlineBudget; elapsed > limit && !raceDetector {
		t.Errorf("%d windows took %v behind a held frame, want < %v", windows, elapsed, limit)
	}
	select {
	case err := <-held:
		t.Fatalf("held point query returned early: %v", err)
	default:
	}
	close(blocking.gate)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestStreamDisconnectCancelsFrame is TestClientDisconnectCancelsQuery for
// the stream: a client that closes its connection while a frame is inside
// the engine cancels that frame's context, although the frame is running
// on the very loop that would notice the close.
func TestStreamDisconnectCancelsFrame(t *testing.T) {
	eng, _ := testEngine(t)
	de := &disconnectEngine{
		Engine:  eng,
		started: make(chan struct{}),
		aborted: make(chan error, 1),
	}
	_, _, streamAddr := startStreamServer(t, Config{Engine: de})
	c, err := net.Dial("tcp", streamAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(pending{}.frame(t, 1, false, BatchOp{Op: OpWindow, MaxX: 1, MaxY: 1})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-de.started:
	case <-time.After(5 * time.Second):
		t.Fatal("frame never reached the engine")
	}
	c.Close()
	select {
	case err := <-de.aborted:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine context ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disconnected client's frame was not cancelled in the engine")
	}
}

// BenchmarkStreamRoundTrip is the in-tree number for the stream transport:
// round trips over loopback, client and server in this process, with 1, 4
// and 64 callers in flight on one connection and 4 on two (conns=2, the
// shape of the repo benchmark's serve-stream) — each a one-op point frame,
// or a batch32 frame of 32 points. frames/write is the server's
// group-commit ratio over the run (1 by construction with one caller; above
// 1 when answers that were ready together left together), takeovers counts
// the frames that overran the read loop's budget, and p50_us is the median
// round trip. BenchmarkStreamFloor is the bare socket under it.
func BenchmarkStreamRoundTrip(b *testing.B) {
	eng, pts := testEngine(b)
	s := New(Config{Engine: eng})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.ServeStream(l)
	defer s.Shutdown(context.Background())
	batch := make([]BatchOp, 32)
	for i := range batch {
		batch[i] = BatchOp{Op: OpPoint, X: pts[i].X, Y: pts[i].Y}
	}
	cases := []struct {
		name string
		call func(*Client, int) error
	}{
		{"point", func(cl *Client, i int) error {
			if found, err := cl.PointQuery(context.Background(), pts[i%len(pts)]); err != nil || !found {
				return fmt.Errorf("PointQuery = %v, %v", found, err)
			}
			return nil
		}},
		{"batch32", func(cl *Client, _ int) error {
			if rs, err := cl.Batch(context.Background(), batch); err != nil || len(rs) != len(batch) || !rs[len(rs)-1].Found {
				return fmt.Errorf("Batch = %d results, %v", len(rs), err)
			}
			return nil
		}},
	}
	for _, c := range cases {
		for _, shape := range []struct{ inFlight, conns int }{{1, 1}, {4, 1}, {4, 2}, {64, 1}} {
			name := fmt.Sprintf("%s/inflight=%d", c.name, shape.inFlight)
			if shape.conns > 1 {
				name += fmt.Sprintf("/conns=%d", shape.conns)
			}
			b.Run(name, func(b *testing.B) {
				cl := NewClient(l.Addr().String(), WithTransport(TransportTCP), WithStreamConns(shape.conns))
				defer cl.Close()
				for range shape.conns {
					if err := c.call(cl, 0); err != nil { // dial
						b.Fatal(err)
					}
				}
				frames, flushes, takeovers := s.streamFrames.Load(), s.streamFlushes.Load(), s.streamTakeovers.Load()
				b.ReportAllocs()
				callers(b, shape.inFlight, func(_, i int) error { return c.call(cl, i) })
				frames, flushes = s.streamFrames.Load()-frames, s.streamFlushes.Load()-flushes
				b.ReportMetric(float64(frames)/float64(max(flushes, 1)), "frames/write")
				b.ReportMetric(float64(s.streamTakeovers.Load()-takeovers), "takeovers")
			})
		}
	}
}

// BenchmarkStreamFloor is the socket floor under BenchmarkStreamRoundTrip:
// a bare loopback echo of the same bytes — a one-op point request frame
// out, its answer frame back — through the same buffered frame reader and
// with the same write deadlines on both sides, but with no client, server,
// engine or codec between the bytes and the socket. Each caller has a
// connection of its own and reads its own answer. p50_us is the median
// round trip.
func BenchmarkStreamFloor(b *testing.B) {
	p := geom.Pt(0.25, 0.5)
	req, err := wire.AppendOps(wire.OpenStreamFrame(nil, 1), []BatchOp{{Op: OpPoint, X: p.X, Y: p.Y}}, false, false)
	if err != nil {
		b.Fatal(err)
	}
	wire.CloseFrame(req, 0)
	ans := wire.AppendStreamAnswers(wire.OpenStreamFrame(nil, 1), []wire.Result{{Op: OpPoint, Flag: true}}, nil)
	wire.CloseFrame(ans, 0)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReaderSize(conn, wire.ReadChunk)
				for {
					if _, _, err := wire.ReadStreamFrame(br, streamMaxResponseFrame, nil); err != nil {
						return
					}
					conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
					if _, err := conn.Write(ans); err != nil {
						return
					}
				}
			}()
		}
	}()

	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("callers=%d", n), func(b *testing.B) {
			conns := make([]net.Conn, n)
			readers := make([]*bufio.Reader, n)
			for g := range conns {
				c, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				conns[g], readers[g] = c, bufio.NewReaderSize(c, wire.ReadChunk)
			}
			b.ReportAllocs()
			callers(b, n, func(g, _ int) error {
				conns[g].SetWriteDeadline(time.Now().Add(DefaultTimeout))
				if _, err := conns[g].Write(req); err != nil {
					return err
				}
				_, _, err := wire.ReadStreamFrame(readers[g], streamMaxResponseFrame, nil)
				return err
			})
		})
	}
}

// callers runs b.N calls over n goroutines, caller g making calls g+i for
// i < its share, with the benchmark timer around them, and reports the
// median call's latency as p50_us.
func callers(b *testing.B, n int, call func(g, i int) error) {
	lat := make([][]time.Duration, n)
	for g := range lat {
		lat[g] = make([]time.Duration, 0, b.N/n+1)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := range n {
		share := b.N / n
		if g < b.N%n {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range share {
				start := time.Now()
				if err := call(g, g+i); err != nil {
					b.Error(err)
					return
				}
				lat[g] = append(lat[g], time.Since(start))
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	all := slices.Concat(lat...)
	slices.Sort(all)
	if len(all) > 0 {
		b.ReportMetric(float64(all[len(all)/2].Nanoseconds())/1e3, "p50_us")
	}
}
