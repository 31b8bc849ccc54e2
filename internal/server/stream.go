package server

// rsmistream — rsmibin/1 over a persistent TCP connection. PR 3 measured
// ~200 µs of HTTP per-request overhead left on the binary path at 1M
// points; rsmibin frames are self-delimiting, so the same encoding can
// run over a raw TCP stream and shed HTTP framing entirely.
//
// # Framing
//
// Both directions carry length-prefixed frames over one long-lived TCP
// connection. Integers are little-endian; varints are uvarints:
//
//	frame       uint32 payload length, payload
//	request     uvarint request id, rsmibin batch request frame
//	            (RB+version header, uvarint n, n × entry — the exact
//	            /v1/batch request encoding of binproto.go; a single-query
//	            op is a batch of one)
//	response    uvarint request id, status byte
//	  status 0    rsmibin batch response frame (header, uvarint n,
//	              n × result [, trace] — the trace result rides along
//	              when an entry carried the rsmibin explain flag bit)
//	  status 1    uvarint code (HTTP status semantics: 400, 429, 503),
//	              uvarint msg length, msg bytes
//	push        request id 0, status 2, uvarint n, n × (uvarint sub id,
//	            kind byte (1 insert, 2 delete), flags byte (bit 0: one or
//	            more notifications were missed), x f64, y f64) — a
//	            server-initiated standing-query notification batch
//	            (subserve.go; registered with a single-op sub frame)
//
// The request id tags each frame so clients may pipeline: many requests
// can be in flight on one connection and responses are matched by id, in
// whatever order the server finishes them. Ids need only be unique among
// a connection's in-flight requests — and never 0, which tags
// server-initiated push frames.
//
// # Semantics
//
// A stream frame goes through the same request pipeline as an HTTP
// request (pipeline.go): one-op frames run through executeSingle — one
// engine call on the frame's own goroutine — and observe the per-op
// latency histograms; multi-op frames run through executeBatch and
// observe the batch histogram. Admission control is the same bounded
// in-flight gate — saturation answers status 429 on the stream where
// HTTP sheds with 429 — and Shutdown drains stream requests exactly as
// it drains HTTP ones: frames already read are executed and answered
// before their connection closes. Frame-level corruption (bad length,
// bad request id) closes the connection; request-level errors (malformed
// rsmibin payload, invalid coordinates) answer status 1 and keep the
// connection alive.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"rsmi/internal/obs"
	"rsmi/internal/sub"
)

const (
	// streamMaxRequestFrame bounds a request frame's payload, mirroring
	// the HTTP maxBatchBodyBytes limit.
	streamMaxRequestFrame = maxBatchBodyBytes
	// streamMaxResponseFrame bounds a response frame's payload on the
	// client side. It rejects a garbage length prefix, not legal answers:
	// a maximal batch (16384 window ops of ~4k result points each) stays
	// under it, so any batch the HTTP transport can answer, the stream
	// can too. What a frame may make the reader allocate is bounded
	// separately, by the bytes that actually arrive (readStreamFrame).
	streamMaxResponseFrame = 1 << 30
	// streamWriteTimeout bounds one response write on the server; a
	// client that stops reading cannot pin a handler goroutine forever.
	streamWriteTimeout = 30 * time.Second
	// streamReadBuf sizes the per-connection read buffer, and is the
	// largest frame readStreamFrame allocates for on the length prefix's
	// word alone.
	streamReadBuf = 64 << 10
	// streamMaxPipeline bounds requests concurrently dispatched per
	// connection. When a client pipelines faster than the server
	// answers, the read loop stops reading — TCP backpressure, the
	// stream analogue of HTTP's one-request-per-connection lockstep —
	// instead of growing a goroutine per frame without limit.
	streamMaxPipeline = 256
)

// Stream response status bytes.
const (
	streamStatusOK    byte = 0
	streamStatusError byte = 1
	// streamStatusPush tags a server-initiated frame: a standing-query
	// notification batch, pushed without any request. Push frames always
	// carry request id streamPushID, which clients never assign, so a
	// pipelined client can route them before its pending-request lookup.
	streamStatusPush byte = 2
)

// streamPushID is the reserved request id of server-initiated push
// frames; client-assigned ids start at 1.
const streamPushID = 0

// subFlagMissed is the push-entry flag bit marking that one or more
// earlier notifications for the subscription were lost (full outbox or
// client reconnect): the subscriber should re-run its query.
const subFlagMissed byte = 1

// errStreamFrameTooBig reports a frame whose declared length exceeds the
// receiver's bound; the connection is unrecoverable.
var errStreamFrameTooBig = errors.New("rsmistream: frame exceeds size limit")

// readStreamFrame reads one length-prefixed frame and splits off the
// request id. io.EOF is returned untouched for a clean close before any
// length bytes. A frame that fits the read buffer gets its one exact
// allocation; a larger one is read in doubling steps, so the memory
// committed follows the bytes received and a 4-byte header cannot make
// either side allocate maxLen.
func readStreamFrame(br *bufio.Reader, maxLen uint32) (id uint64, payload []byte, err error) {
	var lb [4]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("rsmistream: truncated frame length: %w", err)
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n == 0 {
		return 0, nil, errors.New("rsmistream: empty frame")
	}
	if n > maxLen {
		return 0, nil, errStreamFrameTooBig
	}
	buf := make([]byte, min(n, streamReadBuf))
	for read := 0; ; {
		if _, err := io.ReadFull(br, buf[read:]); err != nil {
			return 0, nil, fmt.Errorf("rsmistream: truncated frame: %w", err)
		}
		if read = len(buf); read == int(n) {
			break
		}
		grown := make([]byte, min(2*read, int(n)))
		copy(grown, buf)
		buf = grown
	}
	id, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, nil, errors.New("rsmistream: bad request id")
	}
	return id, buf[w:], nil
}

// streamWriter serialises response frames onto one connection. Handler
// goroutines finish in any order, so every write happens under the mutex;
// the first write error poisons the writer and the connection loop tears
// the connection down.
type streamWriter struct {
	conn net.Conn
	mu   sync.Mutex
	err  error
}

// writeFrame frames and writes one payload built by fill (which receives
// a buffer already holding the request id). The frame is encoded into a
// pooled buffer — the same zero-copy path as HTTP binary responses.
func (w *streamWriter) writeFrame(id uint64, fill func([]byte) []byte) {
	bp := binBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, 0, 0, 0, 0) // length, patched below
	b = appendUvarint(b, id)
	b = fill(b)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	w.mu.Lock()
	if w.err == nil {
		w.conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		_, err := w.conn.Write(b)
		w.err = err
	}
	w.mu.Unlock()
	if cap(b) <= binBufPoolMax {
		*bp = b[:0]
		binBufPool.Put(bp)
	}
}

// writeAnswers writes a status-0 response: the rsmibin batch response
// frame encoded straight from the engine's points, with the EXPLAIN
// trace riding after the results when tj is non-nil.
func (w *streamWriter) writeAnswers(id uint64, answers []batchAnswer, tj *TraceJSON) {
	w.writeFrame(id, func(b []byte) []byte {
		b = append(b, streamStatusOK)
		return appendBinTrace(appendBatchAnswers(appendBinHeader(b), answers), tj)
	})
}

// writePush writes one server-initiated push frame carrying a batch of
// standing-query notifications, on the reserved request id 0.
func (w *streamWriter) writePush(ns []sub.Notification) {
	w.writeFrame(streamPushID, func(b []byte) []byte {
		b = append(b, streamStatusPush)
		b = appendUvarint(b, uint64(len(ns)))
		for _, n := range ns {
			b = appendUvarint(b, n.SubID)
			var flags byte
			if n.Missed {
				flags |= subFlagMissed
			}
			b = append(b, byte(n.Kind), flags)
			b = appendF64(b, n.P.X)
			b = appendF64(b, n.P.Y)
		}
		return b
	})
}

// writeError writes a status-1 response carrying an HTTP-semantics code.
func (w *streamWriter) writeError(id uint64, code int, msg string) {
	w.writeFrame(id, func(b []byte) []byte {
		b = append(b, streamStatusError)
		b = appendUvarint(b, uint64(code))
		b = appendUvarint(b, uint64(len(msg)))
		return append(b, msg...)
	})
}

// failed reports whether a write on the connection has errored.
func (w *streamWriter) failed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != nil
}

// ServeStream accepts rsmistream connections on l until Shutdown; like
// Serve it returns http.ErrServerClosed after a clean shutdown.
func (s *Server) ServeStream(l net.Listener) error {
	s.streamMu.Lock()
	if s.streamClosed {
		s.streamMu.Unlock()
		l.Close()
		return http.ErrServerClosed
	}
	s.streamLs = append(s.streamLs, l)
	s.streamMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.streamStop:
				return http.ErrServerClosed
			default:
				return err
			}
		}
		s.streamWG.Add(1)
		go func() {
			defer s.streamWG.Done()
			s.serveStreamConn(conn)
		}()
	}
}

// ListenAndServeStream listens on addr and serves rsmistream connections
// until Shutdown.
func (s *Server) ListenAndServeStream(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeStream(l)
}

// trackStreamConn registers or unregisters a live connection so Shutdown
// can interrupt blocked reads (deadline) and, past its context, force
// close.
func (s *Server) trackStreamConn(c net.Conn, add bool) bool {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if add {
		if s.streamClosed {
			return false
		}
		s.streamConns[c] = struct{}{}
		return true
	}
	delete(s.streamConns, c)
	return true
}

// serveStreamConn runs one connection: read frames, dispatch each to its
// own goroutine (pipelining — a slow query must not head-of-line block
// the frames behind it), answer through the shared writer. The read loop
// exits on connection error, frame corruption, or shutdown (Shutdown
// sets a past read deadline on every live connection).
//
// Each request executes under the connection's context, and what happens
// to requests already dispatched when the read loop exits depends on
// why it exited. During Shutdown the context stays live: requests
// already read are drained, answered, and only then is the connection
// closed, exactly like HTTP draining. On any other exit — the peer
// disconnected or half-closed its write side, or the stream is corrupt
// — the context is cancelled and in-flight requests abort between shard
// visits with 499-coded status frames: a closed read side is treated as
// the client abandoning its outstanding requests (the in-repo client
// never half-closes), the same judgement HTTP makes when a request's
// connection drops.
func (s *Server) serveStreamConn(conn net.Conn) {
	if !s.trackStreamConn(conn, true) {
		conn.Close()
		return
	}
	defer conn.Close()
	defer s.trackStreamConn(conn, false)
	//rsmi:allow ctxflow -- connection-lifetime root: rsmistream requests derive from the conn, which has no parent ctx
	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()
	sw := &streamWriter{conn: conn}
	if cs := s.newConnSubs(sw); cs != nil {
		// Requests find the connection's subscription state on their
		// context. Teardown before conn.Close (LIFO): the pusher must stop
		// writing before the connection goes away.
		connCtx = context.WithValue(connCtx, connSubsKey{}, cs)
		defer cs.close()
	}
	br := bufio.NewReaderSize(conn, streamReadBuf)
	var reqWG sync.WaitGroup
	pipeline := make(chan struct{}, streamMaxPipeline)
	for {
		id, payload, err := readStreamFrame(br, streamMaxRequestFrame)
		if err != nil || sw.failed() {
			break
		}
		// A replication handshake ('R','L',1 — no rsmibin frame starts
		// that way) dedicates this connection to the oplog feed
		// (replication.go); it returns when the feed ends.
		if isReplHandshake(payload) {
			s.serveReplFeed(conn, payload)
			break
		}
		// Blocks when streamMaxPipeline requests are already in flight on
		// this connection; dispatched handlers always finish (admission
		// shedding, engine execution, bounded response writes), so the
		// loop resumes as they drain.
		pipeline <- struct{}{}
		reqWG.Add(1)
		go func(id uint64, payload []byte) {
			defer func() {
				<-pipeline
				reqWG.Done()
			}()
			s.handleStreamRequest(connCtx, sw, id, payload)
		}(id, payload)
	}
	// The read loop is done. If this is a graceful shutdown the client is
	// still listening: leave the context live so dispatched requests drain
	// and answer. Otherwise the connection is gone or unsynchronised —
	// cancel, so in-flight queries stop early.
	select {
	case <-s.streamStop:
	default:
		connCancel()
	}
	reqWG.Wait()
}

// streamExchange adapts one request frame: rsmibin both ways, errors as
// status-1 frames, everything tagged with the frame's request id.
type streamExchange struct {
	sw      *streamWriter
	id      uint64
	payload []byte
	sc      scratch
}

// streamExchangePool recycles exchanges, like httpExchangePool.
var streamExchangePool = sync.Pool{New: func() interface{} { return new(streamExchange) }}

// handleStreamRequest runs one frame through the request pipeline. ctx
// is the connection's context, additionally bounded by the per-request
// deadline when Config.StreamRequestTimeout is set. The op kind is only
// known after decode; a sampled trace starts with an empty op and the
// pipeline labels it once the frame is decoded.
func (s *Server) handleStreamRequest(ctx context.Context, sw *streamWriter, id uint64, payload []byte) {
	var tr *obs.Trace
	if s.cfg.Observer.ShouldTrace() {
		tr = s.newTrace("", transportStream)
	}
	if s.cfg.StreamRequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.StreamRequestTimeout)
		defer cancel()
	}
	x := streamExchangePool.Get().(*streamExchange)
	x.sw, x.id, x.payload = sw, id, payload
	s.serve(ctx, x, transportStream, tr)
	*x = streamExchange{sc: x.sc.recycled()}
	streamExchangePool.Put(x)
}

func (x *streamExchange) decode() ([]BatchOp, bool, bool, error) {
	ops, explain, err := decodeBinaryOps(x.payload, false)
	return ops, len(ops) == 1, explain, err
}

func (x *streamExchange) mem() *scratch { return &x.sc }

func (x *streamExchange) fail(code int, msg string) { x.sw.writeError(x.id, code, msg) }

func (x *streamExchange) reply(answers []batchAnswer, tj *TraceJSON) {
	x.sw.writeAnswers(x.id, answers, tj)
}

// shutdownStream stops the stream transport: close listeners, interrupt
// every connection's blocked read with a past deadline (requests already
// read still execute and answer), and wait for the connection loops —
// bounded by ctx, past which live connections are force-closed.
func (s *Server) shutdownStream(ctx context.Context) error {
	s.streamStopOnce.Do(func() { close(s.streamStop) })
	s.streamMu.Lock()
	s.streamClosed = true
	ls := s.streamLs
	s.streamLs = nil
	for c := range s.streamConns {
		c.SetReadDeadline(time.Now())
	}
	s.streamMu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	done := make(chan struct{})
	go func() {
		s.streamWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.streamMu.Lock()
		for c := range s.streamConns {
			c.Close()
		}
		s.streamMu.Unlock()
		return ctx.Err()
	}
}
