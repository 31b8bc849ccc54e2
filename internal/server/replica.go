package server

// Replica side of the replica-set serving tier. A replica:
//
//  1. bootstraps by downloading the primary's stamped snapshot
//     (GET /v1/replica/snapshot) and loading it into a sharded engine;
//  2. catches up and stays current by following the primary's oplog
//     feed over the rsmistream listener (replication.go), applying
//     records in sequence to its local engine;
//  3. serves reads locally through Engine() — the same rsmi.Engine
//     surface the primary serves, so a replica answers every endpoint
//     on every transport — and forwards writes to the primary.
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
// The follow loop reconnects with backoff on any feed failure. A resync
// frame — epoch mismatch after a primary restart, or falling out of
// oplog retention — triggers a full re-bootstrap: the replica keeps
// serving its stale engine while the new snapshot downloads, then
// atomically swaps it in.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/shard"
)

// errReplResync reports a feed that answered with a resync frame: the
// replica's position is unservable and it must re-bootstrap.
var errReplResync = errors.New("repl: primary demands resync")

// ReplicaOptions tunes a Replica beyond its primary address.
type ReplicaOptions struct {
	// Timeout bounds control-plane calls (info, snapshot download) and
	// forwarded writes (default 30s).
	Timeout time.Duration
	// ReconnectDelay is the pause between feed reconnect attempts
	// (default 500ms; tests use milliseconds).
	ReconnectDelay time.Duration
	// ReadTimeout bounds the silence the replica tolerates on the feed
	// before treating the link as dead (default 3 heartbeat intervals).
	// The fault-injection harness lowers it to exercise stall detection.
	ReadTimeout time.Duration
	// Dial overrides how the replica reaches the primary's oplog feed —
	// the fault-injection seam. Default net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
}

func (o ReplicaOptions) withDefaults() ReplicaOptions {
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.ReconnectDelay <= 0 {
		o.ReconnectDelay = 500 * time.Millisecond
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 3 * replHeartbeatEvery
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.Dial("tcp", addr)
		}
	}
	return o
}

// Replica follows a primary. Create with NewReplica, call Bootstrap,
// then Start; serve Engine() and hand the Replica to Config.Replica so
// /v1/stats reports replication state. Stop with Stop.
type Replica struct {
	primary string // primary HTTP base URL
	opts    ReplicaOptions
	fwd     *Client      // forwarded writes (binary HTTP)
	hc      *http.Client // info + snapshot control plane

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
	// itself, the tap survives the atomic engine swap of a re-bootstrap.
	writeTap atomic.Pointer[shard.WriteHook]

	mu         sync.Mutex
	streamAddr string

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// lifeCtx is the replica's lifecycle context: every context the
	// follow loop needs (bootstrap retries, replayed rebuilds, applied
	// writes) derives from it, so Stop cancels in-flight work instead
	// of waiting out its timeouts.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
}

// NewReplica returns a replica of the primary serving HTTP at addr
// ("host:port" or a full http:// URL). It performs no I/O; call
// Bootstrap.
func NewReplica(addr string, o ReplicaOptions) *Replica {
	o = o.withDefaults()
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	addr = strings.TrimRight(addr, "/")
	// The replica's lifecycle root: background work (bootstrap retries,
	// oplog application) outlives any one request.
	//rsmi:allow ctxflow -- lifecycle root, cancelled by Stop rather than a caller's ctx
	ctx, cancel := context.WithCancel(context.Background())
	return &Replica{
		primary:    addr,
		opts:       o,
		fwd:        NewClient(addr, WithProto(ProtoBinary), WithTimeout(o.Timeout)),
		hc:         &http.Client{Timeout: o.Timeout},
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

// PrimarySeq reports the primary's last sequence as of the latest feed
// frame; PrimarySeq-AppliedSeq is the replica's known lag.
func (r *Replica) PrimarySeq() uint64 { return r.primarySeq.Load() }

// Connected reports whether the oplog feed is currently live.
func (r *Replica) Connected() bool { return r.connected.Load() }

// Resyncs reports how many times the replica had to re-bootstrap.
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

func (r *Replica) stats() *ReplicationStats {
	return &ReplicationStats{
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

// Bootstrap downloads and loads the primary's snapshot, recording the
// epoch and sequence it reflects. The previous engine (if any) keeps
// serving until the swap.
func (r *Replica) Bootstrap(ctx context.Context) error {
	info, err := r.fetchInfo(ctx)
	if err != nil {
		return err
	}
	if info.StreamAddr == "" {
		return errors.New("repl: primary serves no rsmistream listener")
	}
	r.mu.Lock()
	r.streamAddr = resolveStreamAddr(r.primary, info.StreamAddr)
	r.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primary+"/v1/replica/snapshot", nil)
	if err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot: status %d", resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(headerReplEpoch), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot: bad epoch header: %w", err)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(headerReplSeq), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot: bad seq header: %w", err)
	}
	idx, err := rsmi.LoadSharded(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	r.cur.Store(idx)
	r.epoch.Store(epoch)
	r.applied.Store(seq)
	if seq > r.primarySeq.Load() {
		r.primarySeq.Store(seq)
	}
	return nil
}

func (r *Replica) fetchInfo(ctx context.Context) (ReplicaInfo, error) {
	var info ReplicaInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primary+"/v1/replica/info", nil)
	if err != nil {
		return info, fmt.Errorf("repl: %w", err)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return info, fmt.Errorf("repl: info: %w", err)
	}
	err = handleResponse(resp, jsonInto(&info))
	if err != nil {
		return info, fmt.Errorf("repl: info: %w", err)
	}
	return info, nil
}

// resolveStreamAddr combines the primary's advertised stream address
// with its known HTTP host: a listener bound to a wildcard address
// ("[::]:9001", "0.0.0.0:9001", ":9001") advertises an unconnectable
// host, so the replica substitutes the host it already reaches the
// primary's HTTP on.
func resolveStreamAddr(httpBase, streamAddr string) string {
	host, port, err := net.SplitHostPort(streamAddr)
	if err != nil {
		return streamAddr
	}
	if host != "" && host != "::" && host != "0.0.0.0" {
		return streamAddr
	}
	base := httpBase
	if i := strings.Index(base, "://"); i >= 0 {
		base = base[i+3:]
	}
	if i := strings.IndexByte(base, '/'); i >= 0 {
		base = base[:i]
	}
	if h, _, err := net.SplitHostPort(base); err == nil && h != "" {
		host = h
	} else if base != "" {
		host = base
	} else {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// Start launches the follow loop. Bootstrap must have succeeded first.
func (r *Replica) Start() {
	r.wg.Add(1)
	go r.run()
}

// Stop terminates the follow loop, cancels in-flight bootstrap and
// apply work, and releases the forwarding client.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() {
		r.lifeCancel()
		close(r.stop)
	})
	r.wg.Wait()
	r.fwd.Close()
	r.hc.CloseIdleConnections()
}

func (r *Replica) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// run follows the feed forever: reconnect on failure, re-bootstrap on
// resync, until Stop.
func (r *Replica) run() {
	defer r.wg.Done()
	for {
		err := r.follow()
		r.connected.Store(false)
		if r.stopped() {
			return
		}
		if errors.Is(err, errReplResync) {
			r.resyncs.Add(1)
			for !r.stopped() {
				ctx, cancel := context.WithTimeout(r.lifeCtx, r.opts.Timeout)
				err := r.Bootstrap(ctx)
				cancel()
				if err == nil {
					break
				}
				if !r.sleep(r.opts.ReconnectDelay) {
					return
				}
			}
			continue
		}
		if !r.sleep(r.opts.ReconnectDelay) {
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
// pushed frames in sequence until the link dies, the primary demands a
// resync, or Stop.
func (r *Replica) follow() error {
	r.mu.Lock()
	addr := r.streamAddr
	r.mu.Unlock()
	conn, err := r.opts.Dial(addr)
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
	// answers per request), then the payload the listener sniffs for the
	// 'R','L' magic. Feed frames carry no request id.
	err = writeReplFrame(conn, r.opts.Timeout, func(b []byte) []byte {
		return appendReplHandshake(appendUvarint(b, 0), r.epoch.Load(), r.applied.Load()+1)
	})
	if err != nil {
		return fmt.Errorf("repl: handshake: %w", err)
	}
	r.connected.Store(true)
	defer r.connected.Store(false)

	br := bufio.NewReader(conn)
	var payload []byte
	for {
		conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout))
		if payload, err = readFrame(br, streamMaxResponseFrame, payload[:cap(payload)]); err != nil {
			return fmt.Errorf("repl: feed read: %w", err)
		}
		if err := r.applyFrame(payload); err != nil {
			return err
		}
	}
}

// applyFrame applies one pushed feed frame.
func (r *Replica) applyFrame(payload []byte) error {
	if len(payload) < 4 || payload[0] != replMagic0 || payload[1] != replMagic1 || payload[2] != replVersion {
		return errors.New("repl: bad feed frame header")
	}
	br := &binReader{data: payload[4:]}
	switch payload[3] {
	case replFrameResync:
		return errReplResync
	case replFrameHeartbeat:
		last := br.uvarint()
		now := br.uvarint()
		if br.err != nil {
			return fmt.Errorf("repl: bad heartbeat: %w", br.err)
		}
		r.primarySeq.Store(last)
		r.observeClock(int64(now))
		return nil
	case replFrameOps:
		n := br.uvarint()
		if br.err != nil {
			return fmt.Errorf("repl: bad ops frame: %w", br.err)
		}
		idx := r.cur.Load()
		for i := uint64(0); i < n; i++ {
			seq := br.uvarint()
			kind := shard.WriteKind(br.byte())
			at := int64(br.uvarint())
			var p geom.Point
			if kind != shard.WriteRebuild {
				p = geom.Pt(br.f64(), br.f64())
			}
			if br.err != nil {
				return fmt.Errorf("repl: bad ops frame: %w", br.err)
			}
			if seq != r.applied.Load()+1 {
				return fmt.Errorf("repl: feed gap: got seq %d, want %d", seq, r.applied.Load()+1)
			}
			switch kind {
			case shard.WriteInsert:
				if err := idx.InsertContext(r.lifeCtx, p); err != nil {
					return fmt.Errorf("repl: insert: %w", err)
				}
			case shard.WriteDelete:
				if _, err := idx.DeleteContext(r.lifeCtx, p); err != nil {
					return fmt.Errorf("repl: delete: %w", err)
				}
			case shard.WriteRebuild:
				// Replaying the primary's rebuild keeps the replica's
				// learned structure — and so its approximate answers —
				// aligned with the primary's.
				if err := idx.RebuildContext(r.lifeCtx); err != nil {
					return fmt.Errorf("repl: rebuild: %w", err)
				}
			default:
				return fmt.Errorf("repl: unknown op kind %d", kind)
			}
			r.applied.Store(seq)
			r.appliedAt.Store(at)
			r.observeClock(at)
			if tap := r.writeTap.Load(); tap != nil {
				(*tap)(shard.WriteOp{Kind: kind, P: p})
			}
		}
		if len(br.data) != 0 {
			return errors.New("repl: trailing bytes in ops frame")
		}
		if s := r.applied.Load(); s > r.primarySeq.Load() {
			r.primarySeq.Store(s)
		}
		return nil
	default:
		return fmt.Errorf("repl: unknown feed frame type %d", payload[3])
	}
}

// replicaEngine is the replica's rsmi.Engine view: reads answered by
// the local engine (atomically swappable across re-bootstraps), writes
// forwarded to the primary. Forwarded errors keep their primary status
// code (*StatusError), which errorCode maps back onto the replica's
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

func (e replicaEngine) RebuildContext(ctx context.Context) error {
	// Forward: the primary rebuilds and the rebuild record reaches every
	// replica through the oplog.
	return e.r.fwd.Rebuild(ctx)
}

func (e replicaEngine) Len() int          { return e.idx().Len() }
func (e replicaEngine) Stats() rsmi.Stats { return e.idx().Stats() }
func (e replicaEngine) Accesses() int64   { return e.idx().Accesses() }
func (e replicaEngine) ResetAccesses()    { e.idx().ResetAccesses() }
func (e replicaEngine) NumShards() int    { return e.idx().NumShards() }

var _ Engine = replicaEngine{}
