package server

// Replica side of the replica-set serving tier. A replica reaches its
// primary on one address, the primary's rsmistream listener, and:
//
//  1. follows the replication feed there (replication.go): the first
//     frames are the primary's stamped snapshot, which it loads into a
//     sharded engine, then oplog records, which it applies in sequence;
//  2. serves reads locally through Engine() — the same rsmi.Engine
//     surface the primary serves, so a replica answers every endpoint
//     on every transport — and forwards writes to the primary over a
//     stream client to the same address.
//
// # Consistency
//
// Replication is asynchronous: a read served by a replica may lag the
// primary by the records still in flight (bounded by one heartbeat
// interval when idle). A write forwarded through a replica is durable
// on the primary when the call returns, but not yet necessarily visible
// to reads on that same replica — read-your-writes holds only against
// the primary. Convergence, not freshness, is the guarantee: a replica
// that stops hearing appends ends up answer-identical to the primary
// (asserted across all three transports by the fault-injection suite).
//
// # Failure handling
//
// The follow loop reconnects with backoff on any feed failure, and
// resumes from its applied position. A position the primary cannot
// serve — an epoch mismatch after a primary restart, or falling out of
// oplog retention — is answered with a fresh snapshot on the same feed
// (a resync): the replica keeps serving its stale engine while the
// chunks arrive, then atomically swaps the new one in.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/shard"
	"rsmi/internal/wire"
)

// replicaOptions are a Replica's timings and its dialer. NewReplica uses
// the defaults; tests in this package shorten the timings and inject
// faults through the dialer.
type replicaOptions struct {
	// timeout bounds the handshake write and forwarded writes (default
	// DefaultTimeout).
	timeout time.Duration
	// reconnectDelay is the pause between feed reconnect attempts
	// (default 500ms).
	reconnectDelay time.Duration
	// readTimeout bounds the silence the replica tolerates on the feed
	// before treating the link as dead (default 3 heartbeat intervals).
	readTimeout time.Duration
	// dial is how the replica reaches the primary's feed (default
	// net.Dial("tcp", addr)).
	dial func(addr string) (net.Conn, error)
}

func (o replicaOptions) withDefaults() replicaOptions {
	if o.timeout <= 0 {
		o.timeout = DefaultTimeout
	}
	if o.reconnectDelay <= 0 {
		o.reconnectDelay = 500 * time.Millisecond
	}
	if o.readTimeout <= 0 {
		o.readTimeout = 3 * replHeartbeatEvery
	}
	if o.dial == nil {
		o.dial = func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}
	}
	return o
}

// Replica follows a primary. Create with NewReplica and call Start;
// serve Engine() and hand the Replica to Config.Replica so /v1/stats
// reports replication state. Stop with Stop.
type Replica struct {
	primary string // the primary's rsmistream address
	opts    replicaOptions
	fwd     *Client // forwarded writes, over the stream transport

	cur        atomic.Pointer[rsmi.Sharded]
	epoch      atomic.Uint64
	applied    atomic.Uint64
	primarySeq atomic.Uint64
	connected  atomic.Bool
	resyncs    atomic.Int64

	// Lag-in-seconds bookkeeping. Every feed frame carries primary-clock
	// (UnixNano) timestamps, so lag is measured against the clock that
	// stamped the records — the two hosts' clocks are never compared.
	// primaryClock is the newest primary stamp seen, frameLocal the local
	// clock when it arrived, appliedAt the primary stamp of the last
	// applied record. All written by the single follow goroutine.
	primaryClock atomic.Int64
	frameLocal   atomic.Int64
	appliedAt    atomic.Int64

	// writeTap, when set, observes every applied oplog record — the
	// replica-side standing-query feed. Unlike a hook on the engine
	// itself, the tap survives the atomic engine swap of a resync.
	writeTap atomic.Pointer[shard.WriteHook]

	// frame is the feed frame applyFrame decodes into, its records'
	// storage kept from frame to frame; snap gathers the chunks of a
	// snapshot run until its final one. The follow goroutine owns both.
	frame wire.FeedFrame
	snap  []byte

	// ready is closed once the first snapshot serves.
	ready    chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// lifeCtx is the replica's lifecycle context: every context the
	// follow loop needs (replayed rebuilds, applied writes) derives from
	// it, so Stop cancels in-flight work instead of waiting out its
	// timeouts.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
}

// NewReplica returns a replica of the primary whose rsmistream listener
// is at addr ("host:port"). It performs no I/O; call Start.
func NewReplica(addr string) *Replica {
	return newReplica(addr, replicaOptions{})
}

// newReplica is NewReplica with its timings and dialer as a parameter,
// for tests.
func newReplica(addr string, o replicaOptions) *Replica {
	o = o.withDefaults()
	// The replica's lifecycle root: background work (oplog application)
	// outlives any one request.
	//rsmi:allow ctxflow -- lifecycle root, cancelled by Stop rather than a caller's ctx
	ctx, cancel := context.WithCancel(context.Background())
	return &Replica{
		primary:    addr,
		opts:       o,
		fwd:        NewClient(addr, WithTransport(TransportTCP), WithTimeout(o.timeout)),
		ready:      make(chan struct{}),
		stop:       make(chan struct{}),
		lifeCtx:    ctx,
		lifeCancel: cancel,
	}
}

// Engine returns the replica's serving view: reads answered locally,
// writes forwarded to the primary.
func (r *Replica) Engine() Engine { return replicaEngine{r} }

// SetWriteTap installs h as the observer of every oplog record this
// replica applies (nil uninstalls), called with the record after it is
// applied locally. It is how read replicas serve standing queries: the
// same feed that keeps the engine current drives the matcher. The tap
// runs on the single follow goroutine — keep it short.
func (r *Replica) SetWriteTap(h shard.WriteHook) {
	if h == nil {
		r.writeTap.Store(nil)
		return
	}
	r.writeTap.Store(&h)
}

// AppliedSeq reports the last oplog sequence applied locally.
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

// Connected reports whether the oplog feed is currently live.
func (r *Replica) Connected() bool { return r.connected.Load() }

// Resyncs reports how many snapshots the replica loaded after its first.
func (r *Replica) Resyncs() int64 { return r.resyncs.Load() }

// LagSeq reports how many oplog sequences the replica is behind the
// primary's last known position (0 when caught up).
func (r *Replica) LagSeq() uint64 {
	p, a := r.primarySeq.Load(), r.applied.Load()
	if a >= p {
		return 0
	}
	return p - a
}

// LagSeconds estimates replication lag in seconds. A caught-up replica
// reports exactly 0. Otherwise the estimate is the primary-clock
// distance from the last applied record to the newest primary stamp
// heard, plus the locally-measured time since that stamp arrived —
// both terms are same-clock differences, so host clock skew cancels.
func (r *Replica) LagSeconds() float64 {
	if r.LagSeq() == 0 {
		return 0
	}
	pc := r.primaryClock.Load()
	if pc == 0 {
		// Nothing heard on the feed yet (just bootstrapped): lag in
		// sequences is known but its age is not.
		return 0
	}
	at := r.appliedAt.Load()
	if at == 0 || at > pc {
		// No record applied since bootstrap, or the applied record is the
		// newest stamp itself: only the local wait since the last frame
		// is attributable.
		at = pc
	}
	lag := float64(pc-at)/1e9 + float64(time.Now().UnixNano()-r.frameLocal.Load())/1e9
	if lag < 0 {
		return 0
	}
	return lag
}

// Ready reports whether the replica should receive traffic: it is
// bootstrapped, its oplog feed is connected, and it is within maxLag
// sequences of the primary. reason explains a false answer.
func (r *Replica) Ready(maxLag uint64) (ready bool, reason string) {
	if r.cur.Load() == nil {
		return false, "not bootstrapped"
	}
	if !r.connected.Load() {
		return false, "oplog feed disconnected"
	}
	if lag := r.LagSeq(); lag > maxLag {
		return false, fmt.Sprintf("applied seq %d lags primary seq %d by %d (max %d)",
			r.applied.Load(), r.primarySeq.Load(), lag, maxLag)
	}
	return true, ""
}

// observeClock records a primary-clock stamp heard on the feed and the
// local time it arrived.
func (r *Replica) observeClock(primaryNS int64) {
	if primaryNS > r.primaryClock.Load() {
		r.primaryClock.Store(primaryNS)
		r.frameLocal.Store(time.Now().UnixNano())
	}
}

func (r *Replica) stats() *wire.ReplicationStats {
	return &wire.ReplicationStats{
		Role:       "replica",
		Epoch:      r.epoch.Load(),
		LastSeq:    r.primarySeq.Load(),
		AppliedSeq: r.applied.Load(),
		LagSeq:     r.LagSeq(),
		LagSeconds: r.LagSeconds(),
		Connected:  r.connected.Load(),
		Resyncs:    r.resyncs.Load(),
	}
}

// Start launches the follow loop and returns once the primary's first
// snapshot serves, or with ctx's error when ctx ends first (the loop
// keeps trying until Stop).
func (r *Replica) Start(ctx context.Context) error {
	r.wg.Add(1)
	go r.run()
	select {
	case <-r.ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stop terminates the follow loop, cancels in-flight apply work, and
// releases the forwarding client.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		r.lifeCancel()
		close(r.stop)
	})
	r.wg.Wait()
	r.fwd.Close()
}

// run follows the feed until Stop, reconnecting after every failure.
func (r *Replica) run() {
	defer r.wg.Done()
	for {
		r.follow()
		if !r.sleep(r.opts.reconnectDelay) {
			return
		}
	}
}

// sleep pauses for d, reporting false when Stop interrupts it.
func (r *Replica) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.stop:
		return false
	}
}

// follow runs one feed connection: dial, handshake at applied+1, apply
// pushed frames in sequence until the link dies or Stop.
func (r *Replica) follow() error {
	r.snap = nil // a run cut with the last connection starts over
	conn, err := r.opts.dial(r.primary)
	if err != nil {
		return err
	}
	defer conn.Close()

	// Unblock the read below when Stop closes r.stop.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-r.stop:
			conn.Close()
		case <-watchDone:
		}
	}()

	// The handshake is a stream request frame: request id 0 (the feed never
	// answers per request), then the payload the listener sniffs for. Feed
	// frames carry no request id.
	err = writeReplFrame(conn, r.opts.timeout, func(b []byte) []byte {
		return wire.AppendFeedHandshake(wire.OpenStreamFrame(b, 0), r.epoch.Load(), r.applied.Load()+1)
	})
	if err != nil {
		return fmt.Errorf("repl: handshake: %w", err)
	}
	r.connected.Store(true)
	defer r.connected.Store(false)

	br := bufio.NewReader(conn)
	var payload []byte
	for {
		conn.SetReadDeadline(time.Now().Add(r.opts.readTimeout))
		if payload, err = wire.ReadFrame(br, streamMaxResponseFrame, payload[:cap(payload)]); err != nil {
			return fmt.Errorf("repl: feed read: %w", err)
		}
		if err := r.applyFrame(payload); err != nil {
			return err
		}
	}
}

// applyFrame applies one pushed feed frame: a malformed frame applies
// nothing, a snapshot chunk swaps the engine once its run is whole and
// loads, and an ops frame's records apply one sequence at a time.
func (r *Replica) applyFrame(payload []byte) error {
	f := &r.frame
	if err := f.Decode(payload); err != nil {
		return err
	}
	switch f.Type {
	case wire.FeedSnapshot:
		return r.applySnapshotChunk(f)
	case wire.FeedHeartbeat:
		r.primarySeq.Store(f.LastSeq)
		r.observeClock(f.Clock)
		return nil
	case wire.FeedOps:
		idx := r.cur.Load()
		if idx == nil {
			return errors.New("repl: ops before the first snapshot")
		}
		for _, rec := range f.Recs {
			if rec.Seq != r.applied.Load()+1 {
				return fmt.Errorf("repl: feed gap: got seq %d, want %d", rec.Seq, r.applied.Load()+1)
			}
			kind := shard.WriteKind(rec.Kind)
			switch kind {
			case shard.WriteInsert:
				if err := idx.InsertContext(r.lifeCtx, rec.P); err != nil {
					return fmt.Errorf("repl: insert: %w", err)
				}
			case shard.WriteDelete:
				if _, err := idx.DeleteContext(r.lifeCtx, rec.P); err != nil {
					return fmt.Errorf("repl: delete: %w", err)
				}
			case shard.WriteRebuild:
				// Replaying the primary's rebuild keeps the replica's
				// learned structure — and so its block reads — aligned
				// with the primary's.
				if err := idx.RebuildContext(r.lifeCtx); err != nil {
					return fmt.Errorf("repl: rebuild: %w", err)
				}
			default:
				return fmt.Errorf("repl: unknown op kind %d", kind)
			}
			r.applied.Store(rec.Seq)
			r.appliedAt.Store(rec.At)
			r.observeClock(rec.At)
			if tap := r.writeTap.Load(); tap != nil {
				(*tap)(shard.WriteOp{Kind: kind, P: rec.P})
			}
		}
		if s := r.applied.Load(); s > r.primarySeq.Load() {
			r.primarySeq.Store(s)
		}
	}
	return nil
}

// applySnapshotChunk gathers one chunk of a snapshot run. The final chunk
// loads the whole run and swaps it in with the epoch and sequence it
// reflects; a run that grows past streamMaxResponseFrame, or that
// LoadSharded refuses, fails the feed and swaps nothing.
func (r *Replica) applySnapshotChunk(f *wire.FeedFrame) error {
	if len(r.snap)+len(f.Chunk) > streamMaxResponseFrame {
		r.snap = nil
		return errors.New("repl: snapshot larger than a response frame may be")
	}
	r.snap = append(r.snap, f.Chunk...)
	if !f.Final {
		return nil
	}
	idx, err := rsmi.LoadSharded(bytes.NewReader(r.snap))
	r.snap = nil
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	first := r.cur.Load() == nil
	r.cur.Store(idx)
	r.epoch.Store(f.Epoch)
	r.applied.Store(f.LastSeq)
	r.primarySeq.Store(f.LastSeq)
	if first {
		close(r.ready)
	} else {
		r.resyncs.Add(1)
	}
	return nil
}

// replicaEngine is the replica's rsmi.Engine view: reads answered by
// the local engine (atomically swappable across resyncs), writes
// forwarded to the primary. Forwarded errors keep their primary status
// code (*wire.StatusError), which errorCode maps back onto the replica's
// own response.
type replicaEngine struct{ r *Replica }

func (e replicaEngine) idx() *rsmi.Sharded { return e.r.cur.Load() }

func (e replicaEngine) Name() string { return e.idx().Name() }

func (e replicaEngine) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	return e.idx().PointQueryContext(ctx, q)
}

func (e replicaEngine) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return e.idx().WindowQueryContext(ctx, q)
}

func (e replicaEngine) WindowQueryAppend(ctx context.Context, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return e.idx().WindowQueryAppend(ctx, dst, q)
}

func (e replicaEngine) ExactWindowContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return e.idx().ExactWindowContext(ctx, q)
}

func (e replicaEngine) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return e.idx().KNNContext(ctx, q, k)
}

func (e replicaEngine) ExactKNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return e.idx().ExactKNNContext(ctx, q, k)
}

func (e replicaEngine) BatchPointQueryContext(ctx context.Context, qs []geom.Point) ([]bool, error) {
	return index.Batch(ctx, qs, e.PointQueryContext)
}

func (e replicaEngine) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	return index.Batch(ctx, qs, e.WindowQueryContext)
}

func (e replicaEngine) BatchKNNContext(ctx context.Context, qs []shard.KNNQuery) ([][]geom.Point, error) {
	return index.Batch(ctx, qs, func(ctx context.Context, q shard.KNNQuery) ([]geom.Point, error) {
		return e.KNNContext(ctx, q.Q, q.K)
	})
}

func (e replicaEngine) InsertContext(ctx context.Context, p geom.Point) error {
	return e.r.fwd.Insert(ctx, p)
}

func (e replicaEngine) DeleteContext(ctx context.Context, p geom.Point) (bool, error) {
	return e.r.fwd.Delete(ctx, p)
}

// RebuildContext refuses: a replica replays its primary's rebuilds from
// the oplog, and the stream transport carries no rebuild request.
func (e replicaEngine) RebuildContext(context.Context) error {
	return errReplicaRebuild
}

// errReplicaRebuild answers a rebuild asked of a replica.
var errReplicaRebuild = &wire.StatusError{
	Code: http.StatusNotImplemented,
	Msg:  "a replica replays its primary's rebuilds: POST /v1/rebuild to the primary",
}

func (e replicaEngine) Len() int          { return e.idx().Len() }
func (e replicaEngine) Stats() rsmi.Stats { return e.idx().Stats() }
func (e replicaEngine) Accesses() int64   { return e.idx().Accesses() }
func (e replicaEngine) ResetAccesses()    { e.idx().ResetAccesses() }
func (e replicaEngine) NumShards() int    { return e.idx().NumShards() }

var _ Engine = replicaEngine{}
