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
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/workload"
)

// startStreamServer serves cfg over both HTTP (httptest) and a stream
// listener, returning the HTTP base URL and the stream address.
func startStreamServer(t *testing.T, cfg Config) (*Server, string, string) {
	t.Helper()
	s := New(cfg)
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

	// Semantically invalid requests surface as *StatusError with HTTP
	// codes over the stream too, and the connection stays usable.
	if _, err := clients["tcp-stream"].WindowQuery(context.Background(), geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}); err == nil {
		t.Fatal("inverted window accepted over the stream")
	} else if se, ok := err.(*StatusError); !ok || se.Code != 400 {
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
	frame := func(id uint64, payload []byte) []byte {
		b := []byte{0, 0, 0, 0}
		b = appendUvarint(b, id)
		b = append(b, payload...)
		binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
		return b
	}

	// Request-level garbage (bad rsmibin magic): status-1 response with
	// code 400, connection stays alive for a valid follow-up.
	c := dial()
	defer c.Close()
	if _, err := c.Write(frame(7, []byte{'X', 'Y', 1, 0})); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	id, payload, err := readStreamFrame(br, streamMaxResponseFrame)
	if err != nil || id != 7 {
		t.Fatalf("error response: id=%d err=%v", id, err)
	}
	if _, _, rerr := decodeStreamResponse(payload); rerr == nil {
		t.Fatal("bad magic did not produce an error response")
	} else if se, ok := rerr.(*StatusError); !ok || se.Code != 400 {
		t.Fatalf("bad magic error = %v, want StatusError 400", rerr)
	}
	// Follow-up valid request on the same connection.
	body := appendBinHeader(nil)
	body = appendUvarint(body, 1)
	body, _ = appendOp(body, BatchOp{Op: OpPoint, X: pts[0].X, Y: pts[0].Y})
	if _, err := c.Write(frame(8, body)); err != nil {
		t.Fatal(err)
	}
	id, payload, err = readStreamFrame(br, streamMaxResponseFrame)
	if err != nil || id != 8 {
		t.Fatalf("follow-up after 400: id=%d err=%v", id, err)
	}
	rs, _, rerr := decodeStreamResponse(payload)
	if rerr != nil || len(rs) != 1 || rs[0].tag != binResBool || !rs[0].flag {
		t.Fatalf("follow-up answer: %+v, %v", rs, rerr)
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
	burst := requestFrame(t, 1, false, BatchOp{Op: OpWindow, MaxX: 0.1, MaxY: 0.1})
	burst = append(burst, requestFrame(t, 2, false, BatchOp{Op: OpWindow, MaxX: 0.2, MaxY: 0.2})...)
	burst = append(burst, requestFrame(t, 3, false, BatchOp{Op: OpPoint, X: pts[1].X, Y: pts[1].Y})...)
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
	if got := readAnswers(t, raw, rawBr, 3); !got[3][0].flag || len(got[1][0].pts) > len(got[2][0].pts) {
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

// TestStreamFrameAllocFollowsBytes checks that readStreamFrame commits
// memory as payload arrives, not on the length prefix's say-so: five bytes
// declaring an 8 MiB frame fail as truncated having allocated next to
// nothing, and a frame larger than the read buffer still reads back whole.
func TestStreamFrameAllocFollowsBytes(t *testing.T) {
	claim := []byte{0, 0, 0, 0, 1}
	binary.LittleEndian.PutUint32(claim, streamMaxRequestFrame)
	br := bufio.NewReader(bytes.NewReader(claim))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readStreamFrame(br, streamMaxRequestFrame)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("8 MiB claim with 1 payload byte: err = %v, want truncated frame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("a 5-byte input made the reader allocate %d bytes, want < 256 KiB", got)
	}

	payload := make([]byte, 5*streamReadBuf+123) // neither a power of two nor a step boundary
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	frame := appendUvarint([]byte{0, 0, 0, 0}, 77)
	frame = append(frame, payload...)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	id, got, err := readStreamFrame(bufio.NewReader(bytes.NewReader(frame)), streamMaxRequestFrame)
	if err != nil || id != 77 || !bytes.Equal(got, payload) {
		t.Fatalf("large frame: id %d, %d payload bytes, err %v", id, len(got), err)
	}
	if _, _, err := readStreamFrame(bufio.NewReader(bytes.NewReader(frame[:len(frame)-1])), streamMaxRequestFrame); err == nil {
		t.Fatal("large frame one byte short read without error")
	}
}

// FuzzStreamFrame asserts the stream frame reader and both payload
// decoders never panic on arbitrary bytes, and that an accepted frame's
// id round-trips through the writer's framing.
func FuzzStreamFrame(f *testing.F) {
	valid := func(id uint64, payload []byte) []byte {
		b := []byte{0, 0, 0, 0}
		b = appendUvarint(b, id)
		b = append(b, payload...)
		binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
		return b
	}
	body := appendBinHeader(nil)
	body = appendUvarint(body, 1)
	body, _ = appendOp(body, BatchOp{Op: OpPoint, X: 0.5, Y: 0.25})
	f.Add(valid(1, body))
	f.Add(valid(1<<40, append([]byte{streamStatusOK}, appendBatchAnswers(appendBinHeader(nil), []batchAnswer{{op: OpPoint, flag: true}})...)))
	f.Add(valid(9, []byte{streamStatusError, 0x90, 0x03, 2, 'h', 'i'}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{0, 0, 0x80, 0, 1}) // claims streamMaxRequestFrame, delivers one byte
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		id, payload, err := readStreamFrame(br, streamMaxRequestFrame)
		if err != nil {
			return
		}
		// Whatever the payload, neither decoder may panic.
		decodeBinaryOps(payload, false)
		decodeStreamResponse(payload)
		// The id survives re-framing.
		reframed := valid(id, payload)
		id2, payload2, err := readStreamFrame(bufio.NewReader(bytes.NewReader(reframed)), streamMaxRequestFrame)
		if err != nil || id2 != id || !bytes.Equal(payload2, payload) {
			t.Fatalf("re-framed frame mismatched: id %d vs %d, err %v", id2, id, err)
		}
	})
}

// requestFrame encodes one stream request frame.
func requestFrame(t testing.TB, id uint64, explain bool, ops ...BatchOp) []byte {
	t.Helper()
	b, err := appendBinaryOps(appendUvarint([]byte{0, 0, 0, 0}, id), ops, false, explain)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// readAnswers reads n response frames and returns their results by
// request id, failing on a status-1 frame, a repeated id or a stall.
func readAnswers(t *testing.T, c net.Conn, br *bufio.Reader, n int) map[uint64][]binResult {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make(map[uint64][]binResult, n)
	for len(got) < n {
		id, payload, err := readStreamFrame(br, streamMaxResponseFrame)
		if err != nil {
			t.Fatalf("after %d of %d answers: %v", len(got), n, err)
		}
		rs, _, err := decodeStreamResponse(payload)
		if err != nil {
			t.Fatalf("request %d: %v", id, err)
		}
		if _, dup := got[id]; dup {
			t.Fatalf("request %d answered twice", id)
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

	if _, err := client.Write(requestFrame(t, 1, false, point(pts[0]))); err != nil {
		t.Fatal(err)
	}
	if rs := readAnswers(t, client, br, 1)[1]; len(rs) != 1 || !rs[0].flag {
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
			burst = append(burst, requestFrame(t, uint64(100+i), i%5 == 0, point(p))...)
		}
		if _, err := client.Write(burst); err != nil {
			t.Fatal(err)
		}
		sentFrames += n
		got := readAnswers(t, client, br, n)
		for i := 0; i < n; i++ {
			rs, ok := got[uint64(100+i)]
			if !ok || len(rs) != 1 || rs[0].flag != (i%2 == 0) {
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
		burst = append(burst, requestFrame(t, uint64(200+i), false, BatchOp{Op: OpWindow, MaxX: 1, MaxY: 1})...)
	}
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	for id, rs := range readAnswers(t, client, br, 6) {
		if len(rs) != 1 || len(rs[0].pts)*16 < streamFlushBytes/3 {
			t.Fatalf("window %d: %d points, too few to pass the cap in three answers", id, len(rs[0].pts))
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

			burst := requestFrame(t, 1, false, ops...)
			for id := uint64(2); id <= 5; id++ {
				burst = append(burst, requestFrame(t, id, false, BatchOp{Op: OpWindow, MaxX: 0.1, MaxY: 0.1})...)
			}
			if _, err := client.Write(burst); err != nil {
				t.Fatal(err)
			}
			got := readAnswers(t, client, br, 4)
			if _, early := got[1]; early {
				t.Fatal("the held frame answered")
			}
			// At least the held frame's: a deschedule longer than the budget
			// inside any other inline frame is a takeover too.
			if n := s.streamTakeovers.Load(); n < 1 {
				t.Fatalf("%d takeovers, want at least 1", n)
			}
			close(blocking.gate)
			if rs := readAnswers(t, client, br, 1)[1]; len(rs) != len(ops) || !rs[len(rs)-1].flag {
				t.Fatalf("taken-over frame's answer: %+v", rs)
			}

			// readAnswers returns when the answer is read, which is before the
			// frame's goroutine has given back its token; the loop serves
			// inline again only after that.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				before := srv.writes.Load()
				burst = burst[:0]
				for id := uint64(10); id < 13; id++ {
					burst = append(burst, requestFrame(t, id, false, BatchOp{Op: OpPoint, X: pts[1].X, Y: pts[1].Y})...)
				}
				if _, err := client.Write(burst); err != nil {
					t.Fatal(err)
				}
				readAnswers(t, client, br, 3)
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
		pending:   make(map[uint64]chan streamAnswer),
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
				rs, _, err := sc.roundTrip(context.Background(), func(b []byte) ([]byte, error) {
					return appendBinaryOps(b, []BatchOp{{Op: OpPoint, X: p.X, Y: p.Y}}, false, false)
				})
				if err != nil || len(rs) != 1 || rs[0].flag != want {
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
	var sent atomic.Int64
	go func() {
		for id := uint64(1); id <= total; id++ {
			if _, err := client.Write(requestFrame(t, id, false, BatchOp{Op: OpWindow, MaxX: 1, MaxY: 1})); err != nil {
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

	for id, rs := range readAnswers(t, client, bufio.NewReader(client), total) {
		if len(rs) != 1 || len(rs[0].pts) != len(pts) {
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
	repl := NewReplicator(eng, 0)
	s := New(Config{Engine: repl.Engine(), Replicator: repl})
	defer s.Shutdown(context.Background())
	client, _, _ := servePipe(t, s)
	br := bufio.NewReader(client)

	burst := requestFrame(t, 1, false, BatchOp{Op: OpPoint, X: pts[0].X, Y: pts[0].Y})
	burst = append(burst, requestFrame(t, 2, false, BatchOp{Op: OpPoint, X: pts[1].X, Y: pts[1].Y})...)
	hs := appendReplHandshake([]byte{0, 0, 0, 0, 0}, repl.log.epoch+1, 1)
	binary.LittleEndian.PutUint32(hs, uint32(len(hs)-4))
	if _, err := client.Write(append(burst, hs...)); err != nil {
		t.Fatal(err)
	}
	for id, rs := range readAnswers(t, client, br, 2) {
		if len(rs) != 1 || !rs[0].flag {
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
	if !isReplHandshake(frame) || frame[3] != replFrameResync {
		t.Fatalf("after the answers: % x, want the feed's resync frame", frame)
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
	if _, err := c.Write(requestFrame(t, 1, false, BatchOp{Op: OpWindow, MaxX: 1, MaxY: 1})); err != nil {
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
// round trips over one loopback connection, client and server in this
// process, with 1, 4 and 64 callers in flight — each a one-op point frame,
// or a batch32 frame of 32 points. frames/write is the server's
// group-commit ratio over the run (1 by construction with one caller; above
// 1 when answers that were ready together left together), and takeovers
// counts the frames that overran the read loop's budget.
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
		for _, inFlight := range []int{1, 4, 64} {
			b.Run(fmt.Sprintf("%s/inflight=%d", c.name, inFlight), func(b *testing.B) {
				cl := NewClient(l.Addr().String(), WithTransport(TransportTCP), WithStreamConns(1))
				defer cl.Close()
				if err := c.call(cl, 0); err != nil { // dial
					b.Fatal(err)
				}
				frames, flushes, takeovers := s.streamFrames.Load(), s.streamFlushes.Load(), s.streamTakeovers.Load()
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < inFlight; g++ {
					n := b.N / inFlight
					if g < b.N%inFlight {
						n++
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if err := c.call(cl, g+i); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				frames, flushes = s.streamFrames.Load()-frames, s.streamFlushes.Load()-flushes
				b.ReportMetric(float64(frames)/float64(max(flushes, 1)), "frames/write")
				b.ReportMetric(float64(s.streamTakeovers.Load()-takeovers), "takeovers")
			})
		}
	}
}
