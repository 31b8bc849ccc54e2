package server

// rsmistream — rsmibin/1 over a persistent TCP connection. HTTP left
// ~200 µs of per-request overhead on the binary path at 1M points;
// rsmibin frames are self-delimiting, so the same encoding runs over a
// raw TCP stream and sheds HTTP framing entirely.
//
// The frame bytes — length word, request id, status, push entries — are
// internal/wire's (stream.go there); this file owns the connections.
//
// # Semantics
//
// A stream frame goes through the same request pipeline as an HTTP
// request (pipeline.go): one-op frames run through executeSingle and
// observe the per-op latency histograms; multi-op frames run through
// executeBatch and observe the batch histogram. Admission control is the
// same bounded in-flight gate — saturation answers status 429 on the
// stream where HTTP sheds with 429 — and Shutdown drains stream requests
// exactly as it drains HTTP ones: frames already read are executed and
// answered before their connection closes. Frame-level corruption (bad
// length, bad request id) closes the connection; request-level errors
// (malformed rsmibin payload, invalid coordinates) answer status 1 and
// keep the connection alive.
//
// Where a frame runs. Every frame — one op or a batch, sql, sub or unsub —
// starts on the connection's read loop, on the goroutine that decoded it:
// no hand-off and no goroutine per frame. The replication handshake
// instead dedicates the connection to the oplog feed. Nothing waits unread
// behind a slow frame: one still running after streamInlineBudget — a
// write behind a rebuild's shard lock, a replica's forwarded write, a long
// batch or a window over a million rows — loses the read loop to a fresh
// goroutine (a takeover), becomes a handed-off frame that counts against
// streamMaxPipeline, and answers and flushes for itself when it finishes.
// While any such frame of the connection is outstanding the loop hands
// every frame off, so a held lock costs a connection one budget, not one
// budget per frame. Exactly one goroutine owns the bufio.Reader at any
// time; ownership changes hands under streamServerConn.mu.
//
// The flush rule. Answers are not written, they are appended to the
// connection's write queue, and the queue leaves in one SetWriteDeadline
// and one conn.Write. The read loop flushes when no complete next frame
// is already buffered — that is, before any read that could block — so a
// lone frame costs the one write it always did, frames that arrived
// together are answered together, and no answer is ever left queued
// across a blocking read; there is no timer and no added latency. A queue
// that passes streamFlushBytes is flushed by whoever filled it. Handed-off
// frames and the subscription pusher append and flush for themselves; a
// goroutine that finds a write in progress leaves its bytes for that
// writer, which drains whatever queued behind it before it returns.
//
// Back-pressure. Leaving bytes to the writer is allowed only while the
// queue is short of streamFlushBytes; past it the appender waits for the
// writer to take the queue — a handed-off frame holding its pipeline
// token, the read loop not reading (and, inside a frame, losing the loop
// after one budget like any slow frame). A peer that sends without reading
// therefore has at most the cap plus streamMaxPipeline answers buffered
// for it before the server stops reading its requests, and a write that
// has not moved for streamWriteTimeout fails the connection.

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"rsmi/internal/obs"
	"rsmi/internal/sub"
	"rsmi/internal/wire"
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
	// separately, by the bytes that actually arrive (wire.ReadFrame).
	streamMaxResponseFrame = 1 << 30
	// streamWriteTimeout bounds one response write on the server; a
	// client that stops reading cannot pin the connection's goroutines
	// (the writer and those waiting for it) forever.
	streamWriteTimeout = 30 * time.Second
	// streamMaxPipeline bounds requests concurrently dispatched per
	// connection. When a client pipelines faster than the server
	// answers, the read loop stops reading — TCP backpressure, the
	// stream analogue of HTTP's one-request-per-connection lockstep —
	// instead of growing a goroutine per frame without limit.
	streamMaxPipeline = 256
	// streamInlineBudget is how long a frame may keep the connection's
	// read loop. A one-op frame is a few microseconds of engine work, so a
	// frame still running a millisecond later is a long batch or scan, or
	// is waiting for something (a shard lock held by a rebuild, the
	// primary's answer to a forwarded write): the loop moves on without it.
	streamInlineBudget = time.Millisecond
	// streamFlushBytes caps what the write queue holds before it is
	// flushed regardless of what else is buffered to read: one write
	// stays about the size of the read buffer that fed it.
	streamFlushBytes = 64 << 10
	// streamInlineFrame is the size of the per-connection request buffer.
	// Every one-op point, window, kNN, insert or delete frame fits: request
	// id ≤ 10 bytes, rsmibin header 3, count 1, the largest entry (window)
	// 33. A longer frame is read into a buffer of its own.
	streamInlineFrame = 64
)

// streamWriter is one connection's write queue. Frames are encoded
// straight into the queue under the mutex — handler goroutines, the read
// loop and the subscription pusher finish in any order — and leave
// together in flush. The first write error poisons the writer and the
// connection loop tears the connection down.
type streamWriter struct {
	s    *Server
	conn net.Conn

	mu sync.Mutex
	// queue holds the encoded frames no write has taken yet, frames of
	// them; spare is the buffer the previous write gave back.
	queue, spare []byte
	frames       int64
	// writing is set while a goroutine is inside flush's write loop: it
	// alone writes, and it takes whatever queued behind it before it leaves.
	writing bool
	// drained (on mu) wakes the goroutines waiting in flushAbove: the writer
	// took the queue, or left.
	drained sync.Cond
	err     error
}

// queueFrame frames one payload built by fill (which receives a buffer
// already holding the request id) onto the queue. It writes nothing
// unless the queue has passed streamFlushBytes: the caller flushes.
func (w *streamWriter) queueFrame(id uint64, fill func([]byte) []byte) {
	w.mu.Lock()
	if w.err != nil {
		w.mu.Unlock()
		return
	}
	start := len(w.queue)
	b := fill(wire.OpenStreamFrame(w.queue, id))
	wire.CloseFrame(b, start)
	w.queue = b
	w.frames++
	full := len(b) >= streamFlushBytes
	w.mu.Unlock()
	if full {
		w.flush()
	}
}

// flush writes the queue: one deadline and one conn.Write for everything
// queued so far. A caller that finds a write in progress leaves its bytes
// to that writer, which loops until the queue is empty — so nothing queued
// before a flush call is ever left behind by it — but only while the queue
// is short of streamFlushBytes: past the cap it waits for the writer to
// take the queue. That wait is the connection's back-pressure. A handed-off
// frame waits holding its pipeline token and the read loop waits not
// reading, so a peer that sends without reading has at most the cap plus
// streamMaxPipeline answers buffered for it, and then is not read from.
func (w *streamWriter) flush() { w.flushAbove(streamFlushBytes) }

// drain is flush that also waits out a write in progress: when it returns
// nothing is queued and nobody is writing, or the connection has failed.
func (w *streamWriter) drain() { w.flushAbove(0) }

// flushAbove is flush with the back-pressure threshold as a parameter: the
// caller waits while another goroutine is writing and the queue holds limit
// bytes or more.
func (w *streamWriter) flushAbove(limit int) {
	w.mu.Lock()
	for w.writing && len(w.queue) >= limit && w.err == nil {
		w.drained.Wait()
	}
	if w.writing {
		w.mu.Unlock()
		return
	}
	w.writing = true
	for len(w.queue) > 0 && w.err == nil {
		b, frames := w.queue, w.frames
		w.queue, w.frames = w.spare[:0], 0
		w.drained.Broadcast()
		w.mu.Unlock()
		w.s.streamFrames.Add(frames)
		w.s.streamFlushes.Add(1)
		w.conn.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		_, err := w.conn.Write(b)
		if cap(b) > bufPoolMax {
			b = nil // one huge answer must not pin its memory for the connection's life
		}
		w.mu.Lock()
		w.spare, w.err = b, err
	}
	w.writing = false
	w.drained.Broadcast()
	w.mu.Unlock()
}

// writePush queues one server-initiated push frame carrying a batch of
// standing-query notifications, on the reserved request id.
func (w *streamWriter) writePush(ns []sub.Notification) {
	w.queueFrame(wire.PushID, func(b []byte) []byte {
		b = wire.AppendPush(b, len(ns))
		for _, n := range ns {
			b = wire.AppendPushEntry(b, n.SubID, byte(n.Kind), n.Missed, n.P)
		}
		return b
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

// streamServerConn is one served connection: the reader and the state that
// says which goroutine owns it, the write queue, and the accounting of the
// frames running off the read loop.
type streamServerConn struct {
	s    *Server
	conn net.Conn
	ctx  context.Context
	// cancel ends ctx; the read loop calls it when it exits for any reason
	// but Shutdown.
	cancel context.CancelFunc
	sw     streamWriter

	// br and reqBuf belong to the read loop, whichever goroutine is
	// running it. reqBuf is the request buffer of inline frames.
	br     *bufio.Reader
	reqBuf []byte
	// watchdog fires takeover when an inline frame outlives
	// streamInlineBudget. The loop re-arms it before every inline frame and
	// stops it only when it goes to wait for bytes; a fire that finds no
	// inline frame running does nothing.
	watchdog *time.Timer

	// pipeline holds a token per frame running off the read loop; wg counts
	// those frames' goroutines and the goroutines that took the loop over —
	// every goroutine of the connection but serveStreamConn's own.
	pipeline chan struct{}
	wg       sync.WaitGroup

	// mu orders the hand-over of the read loop. inline is set while the
	// loop's goroutine is inside an inline frame; taken counts frames that
	// lost the loop and have not finished.
	mu     sync.Mutex
	inline bool
	taken  int
}

// serveStreamConn runs one connection from accept to close.
func (s *Server) serveStreamConn(conn net.Conn) {
	if !s.trackStreamConn(conn, true) {
		conn.Close()
		return
	}
	defer conn.Close()
	defer s.trackStreamConn(conn, false)
	s.newStreamServerConn(conn).serve()
}

func (s *Server) newStreamServerConn(conn net.Conn) *streamServerConn {
	c := &streamServerConn{
		s:        s,
		conn:     conn,
		sw:       streamWriter{s: s, conn: conn},
		br:       bufio.NewReaderSize(conn, wire.ReadChunk),
		reqBuf:   make([]byte, streamInlineFrame),
		pipeline: make(chan struct{}, streamMaxPipeline),
	}
	//rsmi:allow ctxflow -- connection-lifetime root: rsmistream requests derive from the conn, which has no parent ctx
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.sw.drained.L = &c.sw.mu
	c.watchdog = time.AfterFunc(time.Hour, c.takeover)
	c.watchdog.Stop() // armed by the first inline frame
	return c
}

// serve runs the read loop (readLoop) on this goroutine until the
// connection ends or a takeover moves it, then waits for every frame
// still running. The read loop exits on connection error, frame
// corruption, or shutdown (Shutdown sets a past read deadline on every
// live connection).
//
// Each request executes under the connection's context, and what happens
// to requests already read when the read loop exits depends on why it
// exited. During Shutdown the context stays live: requests already read
// are drained, answered, and only then is the connection closed, exactly
// like HTTP draining. On any other exit — the peer disconnected or
// half-closed its write side, or the stream is corrupt — the context is
// cancelled and in-flight requests abort between shard visits with
// 499-coded status frames: a closed read side is treated as the client
// abandoning its outstanding requests (the in-repo client never
// half-closes), the same judgement HTTP makes when a request's connection
// drops.
func (c *streamServerConn) serve() {
	defer c.cancel()
	if cs := c.s.newConnSubs(&c.sw); cs != nil {
		// Requests find the connection's subscription state on their
		// context. Teardown before the caller closes the conn (LIFO): the
		// pusher must stop writing before the connection goes away.
		c.ctx = context.WithValue(c.ctx, connSubsKey{}, cs)
		defer cs.close()
	}
	defer c.watchdog.Stop()
	c.readLoop()
	c.wg.Wait()
}

// readLoop reads frames and serves them — here, or on a goroutine of their
// own while a taken-over frame is outstanding — until the connection ends,
// or until the calling goroutine loses the loop to a takeover, in which
// case it returns once its frame is answered and touches the reader no
// more.
func (c *streamServerConn) readLoop() {
	// more says a complete frame is already buffered: reading it cannot
	// block, so the answers queued so far may wait for its answer.
	for more := false; ; {
		if !more {
			c.watchdog.Stop()
			c.sw.flush()
		}
		id, payload, err := wire.ReadStreamFrame(c.br, streamMaxRequestFrame, c.reqBuf)
		if err != nil || c.sw.failed() {
			break
		}
		// A replication handshake ('R','L',1 — no rsmibin frame starts
		// that way) dedicates this connection to the oplog feed
		// (replication.go); it returns when the feed ends. The feed writes to
		// the socket itself, so the answers of earlier frames leave first:
		// those of handed-off frames too, which may not be queued yet.
		if wire.IsFeedHandshake(payload) {
			c.awaitHandoffs()
			c.sw.drain()
			c.s.serveReplFeed(c.conn, payload)
			break
		}
		more = wire.FrameBuffered(c.br)
		if c.beginInline() {
			c.s.handleStreamRequest(c.ctx, &c.sw, id, payload)
			// The flush is inside the watched region, so a peer that has
			// stopped reading costs the loop one budget as well.
			if !more {
				c.sw.flush()
			}
			if !c.endInline() {
				return
			}
			continue
		}
		if len(payload) < len(c.reqBuf) {
			payload = bytes.Clone(payload) // this short, it may sit in reqBuf, which the next read reuses
		}
		c.dispatch(id, payload)
	}
	c.sw.flush()
	// The read loop is done. If this is a graceful shutdown the client is
	// still listening: leave the context live so the requests already read
	// drain and answer. Otherwise the connection is gone or unsynchronised
	// — cancel, so in-flight queries stop early.
	select {
	case <-c.s.streamStop:
	default:
		c.cancel()
	}
}

// acquire takes a pipeline token for a frame that runs off the read loop.
// It blocks when streamMaxPipeline of them are already running; they
// always finish (admission shedding, engine execution, and a wait for the
// writer that streamWriteTimeout bounds — see flush), so the loop resumes
// as they drain.
func (c *streamServerConn) acquire() {
	select {
	case c.pipeline <- struct{}{}:
	default:
		c.sw.flush() // nothing stays queued while the loop waits
		c.pipeline <- struct{}{}
	}
}

// awaitHandoffs returns once no frame of the connection runs off the read
// loop. It holds every pipeline token at once, so each handed-off frame —
// dispatched, or one that lost the loop to a takeover — has queued its
// answer and let go of its token; then it gives them all back.
func (c *streamServerConn) awaitHandoffs() {
	for range cap(c.pipeline) {
		c.pipeline <- struct{}{}
	}
	for range cap(c.pipeline) {
		<-c.pipeline
	}
}

// dispatch runs one frame on a goroutine of its own.
func (c *streamServerConn) dispatch(id uint64, payload []byte) {
	c.acquire()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.s.handleStreamRequest(c.ctx, &c.sw, id, payload)
		c.sw.flush()
		<-c.pipeline
	}()
}

// beginInline opens the watched region around a frame the read loop is
// about to serve itself. It refuses while a frame that overran its budget
// is still running: whatever that one waits for, this one would likely
// wait for too.
func (c *streamServerConn) beginInline() bool {
	c.mu.Lock()
	if c.taken > 0 {
		c.mu.Unlock()
		return false
	}
	c.inline = true
	c.mu.Unlock()
	c.watchdog.Reset(streamInlineBudget)
	return true
}

// endInline closes the watched region and reports whether the calling
// goroutine still owns the read loop. If takeover moved the loop while the
// frame ran, the frame is a handed-off one now — holding the token
// takeover took for it — and finishes as one.
func (c *streamServerConn) endInline() bool {
	c.mu.Lock()
	own := c.inline
	c.inline = false
	c.mu.Unlock()
	if own {
		return true
	}
	c.sw.flush()
	<-c.pipeline
	c.mu.Lock()
	c.taken--
	c.mu.Unlock()
	return false
}

// takeover is the watchdog's function: if an inline frame is still running
// it takes the read loop from that frame's goroutine and runs it here. The
// decision is made under mu, so a fire that races the frame's end — or
// arrives late, after the next frame began — either finds inline unset and
// does nothing, or takes the loop from a goroutine that will find out when
// its frame returns; the reader never has two owners.
func (c *streamServerConn) takeover() {
	c.mu.Lock()
	if !c.inline {
		c.mu.Unlock()
		return
	}
	c.inline = false
	c.taken++
	c.wg.Add(1)                // before the frame's goroutine can learn it lost the loop and reach wg.Wait
	c.s.streamTakeovers.Add(1) // under mu: counted before any frame is served differently for it
	c.mu.Unlock()
	defer c.wg.Done()
	c.reqBuf = make([]byte, streamInlineFrame) // the overrunning frame may not have decoded the old one yet
	c.acquire()
	c.readLoop()
}

// streamStats reads the write-path counters. flush adds a write's frames
// before it counts the write, so loading in the opposite order keeps
// Frames ≥ Flushes in every reading.
func (s *Server) streamStats() wire.StreamStats {
	flushes := s.streamFlushes.Load()
	return wire.StreamStats{Frames: s.streamFrames.Load(), Flushes: flushes, Takeovers: s.streamTakeovers.Load()}
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

func (x *streamExchange) decode() ([]wire.BatchOp, bool, bool, error) {
	ops, explain, err := wire.DecodeOps(x.payload, false)
	return ops, len(ops) == 1, explain, err
}

func (x *streamExchange) mem() *scratch { return &x.sc }

// fail queues a status-1 response carrying an HTTP-semantics code.
func (x *streamExchange) fail(code int, msg string) {
	x.sw.queueFrame(x.id, func(b []byte) []byte { return wire.AppendStreamError(b, code, msg) })
}

// reply queues a status-0 response: the rsmibin batch response frame
// encoded straight from the engine's points, with the EXPLAIN trace
// riding after the results when tj is non-nil.
func (x *streamExchange) reply(answers []wire.Result, tj *wire.TraceJSON) {
	x.sw.queueFrame(x.id, func(b []byte) []byte { return wire.AppendStreamAnswers(b, answers, tj) })
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
