package server

// Server side of standing queries (geo pub/sub). The subscription
// registry (internal/sub) taps the engine's write hooks and matches
// every applied Insert/Delete against the registered window and kNN
// subscriptions; this file wires the registry into the serving tier:
//
//   - New installs the write tap. On a sharded engine the registry hooks
//     the index directly (shard.AddWriteHook, which a primary's
//     write-gated view exposes as the index's own, fanning in beside the
//     replication oplog tap); on a
//     replica it taps the applied oplog records instead, so read
//     replicas serve subscriptions over the same feed that keeps their
//     engine current.
//
//   - SUB/UNSUB are single-op rsmibin frames on the stream transport
//     only (serveSubOp, an executeSingle case): the
//     persistent connection is the push channel the notifications ride
//     back on, so there is nothing for HTTP to subscribe.
//
//   - Matches are fanned out per connection: the registry hands
//     notifications to a bounded outbox (sub.ChanSink, defaultSubOutbox)
//     that a per-connection pusher goroutine drains into id-0 push
//     frames (stream.go). A subscriber that stops reading fills its
//     outbox and loses notifications — drop-and-mark, never blocking
//     the matcher or the shard write path — and the next delivered
//     notification carries the missed flag so it knows to re-query.

import (
	"context"
	"net/http"
	"sync"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/shard"
	"rsmi/internal/sub"
	"rsmi/internal/wire"
)

// subPushBatchMax bounds notifications per push frame: the pusher
// drains whatever is ready up to this, so a notification burst costs
// one frame, not one write per notification.
const subPushBatchMax = 128

// defaultSubOutbox is each stream connection's notification outbox
// capacity. A subscriber that stops reading fills it and loses
// notifications under drop-and-mark semantics: the write path is never
// blocked by a slow consumer.
const defaultSubOutbox = 256

// hookAdder is the write-tap surface the registry needs from an engine,
// implemented by *rsmi.Sharded (= *shard.Sharded).
type hookAdder interface {
	AddWriteHook(shard.WriteHook) func()
}

// initSubs builds the subscription registry and installs its write tap.
// Servers whose engine exposes no write hooks (an Index, a baseline
// engine, the planner) get no registry and answer SUB frames with 501.
func (s *Server) initSubs() {
	var install func(h shard.WriteHook) func()
	switch {
	case s.cfg.Replica != nil:
		// A replica observes writes as applied oplog records; the tap
		// survives the engine swap of a resync.
		rep := s.cfg.Replica
		install = func(h shard.WriteHook) func() {
			rep.SetWriteTap(h)
			return func() { rep.SetWriteTap(nil) }
		}
	default:
		if ha, ok := s.cfg.Engine.(hookAdder); ok {
			install = ha.AddWriteHook
		}
	}
	if install == nil {
		return
	}
	s.subs = sub.NewRegistry(func(c geom.Point, k int) []geom.Point {
		// The refill read runs on the registry dispatcher, not inside any
		// request; bound it so a wedged engine cannot stall the matcher
		// forever.
		//rsmi:allow ctxflow -- registry-dispatcher refill; no request context exists here
		ctx, cancel := context.WithTimeout(context.Background(), streamWriteTimeout)
		defer cancel()
		pts, err := s.eng.KNNContext(ctx, c, k)
		if err != nil {
			return nil
		}
		return pts
	})
	s.subRemove = install(s.subs.Offer)
}

// closeSubs uninstalls the write tap and drains the registry; called
// from Shutdown after both transports stopped accepting requests.
func (s *Server) closeSubs() {
	if s.subs == nil {
		return
	}
	s.subRemove()
	s.subs.Close()
}

// connSubs is one stream connection's subscription state: its registry
// connection id and the bounded outbox a pusher goroutine drains into
// push frames on the connection's writer. The outbox and pusher are
// created lazily on the first SUB — connections that never subscribe
// pay one pointer.
type connSubs struct {
	s  *Server
	sw *streamWriter
	id uint64

	mu      sync.Mutex
	ch      chan sub.Notification
	stop    chan struct{}
	started bool
	wg      sync.WaitGroup
}

// connSubsKey is the context key a stream connection's subscription
// state rides on: sub/unsub are the one op that needs the connection
// itself (the push channel), and executeSingle is transport-neutral.
type connSubsKey struct{}

// connSubsFrom returns the subscription state of the connection ctx
// belongs to: nil over HTTP and on a server without a registry.
func connSubsFrom(ctx context.Context) *connSubs {
	cs, _ := ctx.Value(connSubsKey{}).(*connSubs)
	return cs
}

// newConnSubs returns the per-connection subscription state, or nil on
// a server without a registry.
func (s *Server) newConnSubs(sw *streamWriter) *connSubs {
	if s.subs == nil {
		return nil
	}
	return &connSubs{s: s, sw: sw, id: s.subConnID.Add(1)}
}

// sink returns the connection's outbox as a registry Sink, starting the
// pusher on first use.
func (c *connSubs) sink() sub.Sink {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		c.ch = make(chan sub.Notification, c.s.subOutbox)
		c.stop = make(chan struct{})
		c.started = true
		c.wg.Add(1)
		go c.push()
	}
	return sub.ChanSink{C: c.ch}
}

// close drops the connection's subscriptions and stops its pusher. The
// registry emits under its own lock, so once DropConn returns no
// further Send reaches the outbox.
func (c *connSubs) close() {
	c.s.subs.DropConn(c.id)
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		close(c.stop)
		c.wg.Wait()
	}
}

// push drains the outbox into push frames, batching whatever queued
// while the previous frame was being written, and observes each
// notification's matcher-to-wire latency.
func (c *connSubs) push() {
	defer c.wg.Done()
	buf := make([]sub.Notification, 0, subPushBatchMax)
	for {
		select {
		case <-c.stop:
			return
		case n := <-c.ch:
			buf = append(buf[:0], n)
		drain:
			for len(buf) < subPushBatchMax {
				select {
				case n2 := <-c.ch:
					buf = append(buf, n2)
				default:
					break drain
				}
			}
			c.sw.writePush(buf)
			c.sw.flush()
			now := time.Now()
			for i := range buf {
				c.s.subNotifyHist.observe(now.Sub(buf[i].Enqueued))
			}
		}
	}
}

// serveSubOp executes one SUB/UNSUB frame against the registry. The
// answer is the usual bool result: true for a registered subscription,
// and for UNSUB whether the id was live.
func (s *Server) serveSubOp(cs *connSubs, op wire.BatchOp) (bool, error) {
	if cs == nil {
		return false, &wire.StatusError{
			Code: http.StatusNotImplemented,
			Msg:  "standing queries are not supported by this server's engine",
		}
	}
	if op.Op == wire.OpUnsub {
		return s.subs.Unsubscribe(cs.id, op.SubID), nil
	}
	// Any other kind is refused by wire.DecodeOps, and by Subscribe.
	spec := sub.Spec{ID: op.SubID}
	switch op.SubKind {
	case wire.SubWindow:
		r, err := opWindow(op)
		if err != nil {
			return false, &wire.StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
		}
		spec.Kind = sub.KindWindow
		spec.Window = r
	case wire.SubKNN:
		if err := finite(op.X, op.Y); err != nil {
			return false, &wire.StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
		}
		spec.Kind = sub.KindKNN
		spec.Center = geom.Pt(op.X, op.Y)
		spec.K = op.K
	}
	if err := s.subs.Subscribe(cs.id, spec, cs.sink()); err != nil {
		return false, &wire.StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	return true, nil
}
