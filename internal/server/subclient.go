package server

// Client side of standing queries. Subscriptions ride a dedicated
// rsmistream connection — separate from the pooled data-plane
// connections, so the server's per-connection subscription state and
// push frames have one home — managed by a keeper goroutine that
// redials after a failure and replays the live subscriptions onto the
// fresh connection. Whatever matched during the gap is unrecoverable,
// so every replayed subscription gets a synthetic Missed marker telling
// the application to re-run its query.

import (
	"context"
	"errors"
	"sync"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/wire"
)

// subRedialDelay paces the keeper's reconnect attempts.
const subRedialDelay = 200 * time.Millisecond

// subNotesBuf sizes the client-side notification buffer handed to the
// application (Client.subNotes). Like the server's per-connection outbox, it never
// blocks: an application that stops draining loses notifications under
// drop-and-mark semantics.
const subNotesBuf = 1024

// subClient owns the dedicated subscription connection and the live
// subscription set, created lazily on the first Subscribe call.
type subClient struct {
	addr    string
	timeout time.Duration
	notes   chan wire.Notification

	// dialMu serialises redial attempts (the keeper and acquire may
	// race to re-establish the connection).
	dialMu sync.Mutex

	mu     sync.Mutex
	conn   *streamConn
	specs  map[uint64]wire.BatchOp
	missed map[uint64]bool
	closed bool

	wake   chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newSubClient(addr string, timeout time.Duration, notes int) *subClient {
	s := &subClient{
		addr:    addr,
		timeout: timeout,
		notes:   make(chan wire.Notification, notes),
		specs:   make(map[uint64]wire.BatchOp),
		missed:  make(map[uint64]bool),
		wake:    make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.keep()
	return s
}

func (s *subClient) wakeKeeper() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// keep watches the dedicated connection and redials (replaying the live
// subscriptions) whenever it dies while subscriptions are outstanding,
// so notifications resume without any application call.
func (s *subClient) keep() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		closed := s.closed
		conn := s.conn
		live := len(s.specs)
		s.mu.Unlock()
		if closed {
			return
		}
		if conn == nil {
			if live == 0 {
				select {
				case <-s.wake:
					continue
				case <-s.stopCh:
					return
				}
			}
			if err := s.redial(); err != nil {
				select {
				case <-time.After(subRedialDelay):
				case <-s.stopCh:
					return
				}
			}
			continue
		}
		select {
		case <-conn.deadCh:
			s.mu.Lock()
			if s.conn == conn {
				s.conn = nil
			}
			s.mu.Unlock()
		case <-s.stopCh:
			return
		case <-s.wake:
		}
	}
}

// redial establishes a fresh dedicated connection and replays the live
// subscriptions onto it. Each replayed subscription gets a synthetic
// Missed marker — the gap's notifications are unrecoverable.
func (s *subClient) redial() error {
	s.dialMu.Lock()
	defer s.dialMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errStreamClientClosed
	}
	if s.conn != nil && !s.conn.dead() {
		s.mu.Unlock()
		return nil
	}
	replay := make([]wire.BatchOp, 0, len(s.specs))
	for _, op := range s.specs {
		replay = append(replay, op)
	}
	s.mu.Unlock()

	conn, err := dialStreamConn(s.addr, s.timeout, s.deliver)
	if err != nil {
		return err
	}

	//rsmi:allow ctxflow -- keeper-initiated replay: no caller context exists on the redial path
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	for _, op := range replay {
		if err := subRoundTrip(ctx, conn, op); err != nil {
			conn.fail(err)
			return err
		}
		s.deliver([]wire.Notification{{SubID: op.SubID, Missed: true}})
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.fail(errStreamClientClosed)
		return errStreamClientClosed
	}
	s.conn = conn
	s.mu.Unlock()
	s.wakeKeeper()
	return nil
}

// acquire returns the live dedicated connection, establishing one when
// there is none.
func (s *subClient) acquire() (*streamConn, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errStreamClientClosed
	}
	if c := s.conn; c != nil && !c.dead() {
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()
	if err := s.redial(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	if c == nil {
		return nil, errStreamClientClosed
	}
	return c, nil
}

// do executes one SUB/UNSUB frame and records the subscription change
// for reconnect replay.
func (s *subClient) do(ctx context.Context, op wire.BatchOp) error {
	conn, err := s.acquire()
	if err != nil {
		return err
	}
	if err := subRoundTrip(ctx, conn, op); err != nil {
		return err
	}
	s.mu.Lock()
	if op.Op == wire.OpSub {
		s.specs[op.SubID] = op
	} else {
		delete(s.specs, op.SubID)
	}
	s.mu.Unlock()
	s.wakeKeeper()
	return nil
}

// deliver hands decoded pushes to the application channel without ever
// blocking the connection's read loop: a full buffer drops the
// notification and marks the subscription, mirroring the server-side
// drop-and-mark contract.
func (s *subClient) deliver(ns []wire.Notification) {
	for _, n := range ns {
		s.mu.Lock()
		if s.missed[n.SubID] {
			n.Missed = true
			delete(s.missed, n.SubID)
		}
		s.mu.Unlock()
		select {
		case s.notes <- n:
		default:
			s.mu.Lock()
			s.missed[n.SubID] = true
			s.mu.Unlock()
		}
	}
}

func (s *subClient) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	close(s.stopCh)
	if conn != nil {
		conn.fail(errStreamClientClosed)
	}
	s.wg.Wait()
}

// subRoundTrip sends one single-op SUB/UNSUB frame; the decoder holds its
// answer to one bool.
func subRoundTrip(ctx context.Context, conn *streamConn, op wire.BatchOp) error {
	ops := []wire.BatchOp{op}
	_, _, err := conn.roundTrip(ctx, ops, func(b []byte) ([]byte, error) {
		return wire.AppendOps(b, ops, false, false)
	})
	return err
}

// errNoStream reports a subscription call on a client without the TCP
// stream transport.
var errNoStream = errors.New("client: standing queries need the TCP stream transport (WithTransport(TransportTCP))")

// subscriptions returns the client's lazily-created subscription state.
func (c *Client) subscriptions() (*subClient, error) {
	if c.stream == nil {
		return nil, errNoStream
	}
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if c.subc == nil {
		c.subc = newSubClient(c.stream.addr, c.stream.timeout, c.subNotes)
	}
	return c.subc, nil
}

// SubscribeWindow registers a standing window query: every insert into
// — and found delete from — q is pushed onto Notifications() as it is
// applied. id is caller-chosen and scoped to this client; re-using a
// live id is an error. TCP stream transport only.
func (c *Client) SubscribeWindow(ctx context.Context, id uint64, q geom.Rect) error {
	sc, err := c.subscriptions()
	if err != nil {
		return err
	}
	return sc.do(ctx, wire.BatchOp{
		Op: wire.OpSub, SubID: id, SubKind: wire.SubWindow,
		MinX: q.MinX, MinY: q.MinY, MaxX: q.MaxX, MaxY: q.MaxY,
	})
}

// SubscribeKNN registers a standing kNN query on centre q: changes to
// the current k nearest neighbours are pushed as the member entering
// (OpInsert) and the member leaving (OpDelete). Membership is
// maintained incrementally and is best-effort under concurrent write
// storms; a Missed notification means re-query. TCP stream transport
// only.
func (c *Client) SubscribeKNN(ctx context.Context, id uint64, q geom.Point, k int) error {
	sc, err := c.subscriptions()
	if err != nil {
		return err
	}
	return sc.do(ctx, wire.BatchOp{Op: wire.OpSub, SubID: id, SubKind: wire.SubKNN, X: q.X, Y: q.Y, K: k})
}

// Unsubscribe removes a standing query registered by SubscribeWindow or
// SubscribeKNN.
func (c *Client) Unsubscribe(ctx context.Context, id uint64) error {
	sc, err := c.subscriptions()
	if err != nil {
		return err
	}
	return sc.do(ctx, wire.BatchOp{Op: wire.OpUnsub, SubID: id})
}

// Notifications returns the channel standing-query pushes arrive on.
// Drain it promptly: a full buffer drops notifications and the next
// delivered one for that subscription carries Missed. The channel is
// never closed — after Close it simply stops receiving.
func (c *Client) Notifications() (<-chan wire.Notification, error) {
	sc, err := c.subscriptions()
	if err != nil {
		return nil, err
	}
	return sc.notes, nil
}
