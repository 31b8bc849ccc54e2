package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
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
	// Wait until the request is admitted and blocked in the engine.
	deadline := time.Now().Add(5 * time.Second)
	for s.inFlight.Load() == 0 {
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
