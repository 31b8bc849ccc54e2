package server

// Client side of the rsmistream transport (stream.go): a small pool of
// persistent TCP connections, each carrying pipelined length-prefixed
// rsmibin frames matched to callers by request id. Many goroutines share
// one pool, so concurrent requests ride the same few connections
// back-to-back.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// streamClient is the connection pool. Connections are dialed lazily and
// replaced on failure; requests are distributed round-robin. Each slot
// has its own lock, so a slow dial on one slot (unreachable server,
// timeout-long) never stalls requests riding the other slots' live
// connections.
type streamClient struct {
	addr    string
	timeout time.Duration

	closed atomic.Bool
	slots  []streamSlot
	next   atomic.Uint64
}

// streamSlot is one pool slot: its lock covers checking and (re)dialing
// the slot's connection.
type streamSlot struct {
	mu   sync.Mutex
	conn *streamConn
}

func newStreamClient(addr string, conns int, timeout time.Duration) *streamClient {
	return &streamClient{
		addr:    addr,
		timeout: timeout,
		slots:   make([]streamSlot, conns),
	}
}

// get returns a live connection for the next request, dialing if the
// slot is empty or its connection has failed.
func (sc *streamClient) get() (*streamConn, error) {
	slot := &sc.slots[int(sc.next.Add(1)%uint64(len(sc.slots)))]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if sc.closed.Load() {
		return nil, errStreamClientClosed
	}
	if slot.conn != nil && !slot.conn.dead() {
		return slot.conn, nil
	}
	c, err := dialStreamConn(sc.addr, sc.timeout, nil)
	if err != nil {
		return nil, err
	}
	slot.conn = c
	return c, nil
}

// close tears down every pooled connection and fails subsequent calls.
// closed is set before the slot sweep, so a get() racing close either
// observes it or dials into a slot the sweep has not reached yet and has
// its fresh connection failed by the sweep.
func (sc *streamClient) close() {
	sc.closed.Store(true)
	for i := range sc.slots {
		slot := &sc.slots[i]
		slot.mu.Lock()
		if slot.conn != nil {
			slot.conn.fail(errStreamClientClosed)
			slot.conn = nil
		}
		slot.mu.Unlock()
	}
}

var errStreamClientClosed = errors.New("stream: client closed")

// streamAnswer is one matched response (or the connection's fatal error).
type streamAnswer struct {
	results []binResult
	trace   *TraceJSON
	err     error
}

// streamConn is one pipelined connection: a write mutex serialises
// request frames, a reader goroutine matches response frames to waiting
// callers by request id. The first failure (dial-level I/O error, frame
// corruption, timeout) poisons the connection: every pending and future
// caller gets the error, and the pool dials a replacement.
type streamConn struct {
	c       net.Conn
	timeout time.Duration
	wmu     sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan streamAnswer
	// abandoned tombstones requests whose caller gave up (context
	// cancelled) while the request was in flight: the server still
	// answers them, and the read loop must discard those late responses
	// instead of treating them as protocol corruption. Entries are
	// removed when the response arrives; a connection failure clears
	// everything.
	abandoned map[uint64]struct{}
	err       error

	// onPush, when set, receives decoded server-initiated push frames
	// (standing-query notifications, request id 0). The pooled data-plane
	// connections leave it nil — the server only pushes on connections
	// that subscribed — and a nil-onPush connection discards pushes.
	onPush func(ns []SubNotification)
	// deadCh, when non-nil, is closed by fail: the subscription keeper
	// watches it to redial and re-subscribe.
	deadCh chan struct{}
}

// dialStreamConn dials addr and starts the new connection's read loop,
// which hands push frames to onPush (nil on the pooled data-plane
// connections).
func dialStreamConn(addr string, timeout time.Duration, onPush func([]SubNotification)) (*streamConn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("stream: dial %s: %w", addr, err)
	}
	c := &streamConn{
		c:         nc,
		timeout:   timeout,
		pending:   make(map[uint64]chan streamAnswer),
		abandoned: make(map[uint64]struct{}),
		onPush:    onPush,
		deadCh:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *streamConn) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// fail poisons the connection and wakes every pending caller.
func (c *streamConn) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	pending := c.pending
	c.pending = nil
	c.abandoned = nil
	c.mu.Unlock()
	c.c.Close()
	if c.deadCh != nil {
		close(c.deadCh)
	}
	for _, ch := range pending {
		ch <- streamAnswer{err: err}
	}
}

// readLoop reads response frames and dispatches them by request id.
func (c *streamConn) readLoop() {
	br := bufio.NewReaderSize(c.c, streamReadBuf)
	for {
		id, payload, err := readStreamFrame(br, streamMaxResponseFrame)
		if err != nil {
			c.fail(fmt.Errorf("stream: %w", err))
			return
		}
		if id == streamPushID {
			// Server-initiated push (standing-query notifications): routed
			// before the pending-request lookup — id 0 is never assigned to
			// a request.
			ns, perr := decodePushPayload(payload)
			if perr != nil {
				c.fail(perr)
				return
			}
			if c.onPush != nil {
				c.onPush(ns)
			}
			continue
		}
		results, trace, rerr := decodeStreamResponse(payload)
		if rerr != nil && !isStatusError(rerr) {
			// Frame-level garbage: the stream is unsynchronised.
			c.fail(rerr)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		if !ok {
			// A late answer to an abandoned request keeps the stream
			// synchronised — discard it and keep reading.
			if _, was := c.abandoned[id]; was {
				delete(c.abandoned, id)
				c.mu.Unlock()
				continue
			}
		}
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("stream: response for unknown request id %d", id))
			return
		}
		ch <- streamAnswer{results: results, trace: trace, err: rerr}
	}
}

func isStatusError(err error) bool {
	var se *StatusError
	return errors.As(err, &se)
}

// abandon tombstones an in-flight request whose caller gave up: the
// read loop will silently discard its late response. It reports whether
// the request was still pending (false means the answer already
// arrived or the connection failed).
func (c *streamConn) abandon(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; !ok {
		return false
	}
	delete(c.pending, id)
	if c.abandoned != nil {
		c.abandoned[id] = struct{}{}
	}
	return true
}

// timerPool recycles the per-request timeout timers: a timer fires once
// per dead connection, so arming a fresh one for every request is three
// objects spent on nothing.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops t and recycles it. No drain: under go.mod's go 1.23 a
// stopped timer's channel holds no stale tick for Reset's next user.
func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// roundTrip sends one request frame — fill appends the rsmibin batch
// request body (everything after the request id) to a pooled buffer that
// already holds the frame prefix — and blocks for its matched response,
// bounded by ctx and the client timeout. A timeout poisons the
// connection — the response may still arrive later, and a connection
// whose stream position is unknown cannot be reused. Context
// cancellation does not poison: the request is tombstoned and its late
// answer discarded, so a hedged read's losing leg releases its
// connection for reuse.
func (c *streamConn) roundTrip(ctx context.Context, fill func([]byte) ([]byte, error)) ([]binResult, *TraceJSON, error) {
	ch := make(chan streamAnswer, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	bp := binBufPool.Get().(*[]byte)
	frame, err := fill(appendUvarint(openFrame((*bp)[:0]), id))
	if err == nil {
		closeFrame(frame, 0)
		c.wmu.Lock()
		c.c.SetWriteDeadline(time.Now().Add(c.timeout))
		_, err = c.c.Write(frame)
		c.wmu.Unlock()
		if err != nil {
			err = fmt.Errorf("stream: write: %w", err)
			c.fail(err)
		}
	}
	if cap(frame) <= binBufPoolMax {
		*bp = frame[:0]
		binBufPool.Put(bp)
	}
	if err != nil {
		// Nothing is in flight under id: either the request never encoded
		// (the connection is intact), or the write failed and fail has
		// already woken every pending caller, this one included.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, nil, err
	}

	timer := getTimer(c.timeout)
	defer putTimer(timer)
	select {
	case a := <-ch:
		return a.results, a.trace, a.err
	case <-ctx.Done():
		if !c.abandon(id) {
			// The answer raced the cancellation; it is already on ch.
			a := <-ch
			return a.results, a.trace, a.err
		}
		return nil, nil, ctx.Err()
	case <-timer.C:
		c.fail(fmt.Errorf("stream: request timed out after %v", c.timeout))
		return nil, nil, fmt.Errorf("stream: request timed out after %v", c.timeout)
	}
}

// decodeStreamResponse parses a response payload (after the request id):
// status 0 wraps an rsmibin batch response frame (with its optional
// trailing EXPLAIN trace), status 1 an error code and message, surfaced
// as *StatusError exactly like HTTP non-2xx answers.
func decodeStreamResponse(payload []byte) ([]binResult, *TraceJSON, error) {
	if len(payload) == 0 {
		return nil, nil, errors.New("stream: empty response payload")
	}
	switch payload[0] {
	case streamStatusOK:
		return decodeBinaryResults(payload[1:], false)
	case streamStatusError:
		r := bytes.NewReader(payload[1:])
		code, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, nil, errors.New("stream: bad error code")
		}
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(r.Len()) {
			return nil, nil, errors.New("stream: bad error message length")
		}
		msg := make([]byte, n)
		r.Read(msg)
		return nil, nil, &StatusError{Code: int(code), Msg: string(msg)}
	default:
		return nil, nil, fmt.Errorf("stream: unknown response status 0x%02x", payload[0])
	}
}

// roundTrip is the stream roundTripFunc: every request is a counted
// rsmibin list in one frame on the next pooled connection (the route does
// not reach the wire — a single-query op is a list of one).
func (sc *streamClient) roundTrip(ctx context.Context, _ *opSpec, ops []BatchOp, explain bool) ([]binResult, *TraceJSON, error) {
	conn, err := sc.get()
	if err != nil {
		return nil, nil, err
	}
	return conn.roundTrip(ctx, func(b []byte) ([]byte, error) {
		return appendBinaryOps(b, ops, false, explain)
	})
}
