package server

// Fault-injection harness and tests for the replica-set serving tier.
// The harness runs a primary and its replicas fully in-process on real
// listeners, with two deterministic fault seams:
//
//   - faultDialer, a ReplicaOptions.Dial hook that can hand the replica
//     a connection with a byte budget (severed mid-stream once spent) or
//     refuse to dial at all (a partitioned feed);
//   - real listener teardown and rebinding, for primary-restart runs.
//
// Every scenario ends the same way: the replica must converge to a state
// that answers point, window, and kNN queries identically to the
// primary — equivalence of answers, not just of counts.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsmi"
	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/shard"
	"rsmi/internal/workload"
)

// replPrimary is an in-process replication primary on real HTTP and
// stream listeners (real listeners, not httptest, so restart tests can
// rebind the same ports).
type replPrimary struct {
	t    *testing.T
	idx  *rsmi.Sharded
	repl *Replicator
	srv  *Server
	hsrv *http.Server

	url        string
	streamAddr string

	stopOnce sync.Once
}

// startReplPrimary serves idx as a replication primary. httpAddr and
// streamAddr may be "127.0.0.1:0" (fresh ports) or previously used
// addresses (restart); binding retries briefly to absorb rebind races.
func startReplPrimary(t *testing.T, idx *rsmi.Sharded, httpAddr, streamAddr string, logCap int) *replPrimary {
	t.Helper()
	repl := NewReplicator(idx, logCap)
	s := New(Config{Engine: repl.Engine(), Replicator: repl})
	httpL := listenRetry(t, httpAddr)
	streamL := listenRetry(t, streamAddr)
	hsrv := &http.Server{Handler: s.Handler()}
	go hsrv.Serve(httpL)
	go s.ServeStream(streamL)
	p := &replPrimary{
		t:          t,
		idx:        idx,
		repl:       repl,
		srv:        s,
		hsrv:       hsrv,
		url:        "http://" + httpL.Addr().String(),
		streamAddr: streamL.Addr().String(),
	}
	// Bootstrap needs /v1/replica/info to advertise the feed listener.
	deadline := time.Now().Add(5 * time.Second)
	for s.streamAddr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("stream listener never registered")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(p.stop)
	return p
}

func (p *replPrimary) stop() {
	p.stopOnce.Do(func() {
		p.hsrv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := p.srv.Shutdown(ctx); err != nil {
			p.t.Errorf("primary Shutdown: %v", err)
		}
	})
}

// listenRetry binds addr, retrying briefly so a restart can reclaim a
// just-released port.
func listenRetry(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fastReplicaOptions are test timings: quick reconnects, generous
// everything else.
func fastReplicaOptions() ReplicaOptions {
	return ReplicaOptions{
		Timeout:        10 * time.Second,
		ReconnectDelay: 5 * time.Millisecond,
		ReadTimeout:    10 * time.Second,
	}
}

// startReplica bootstraps and starts a replica of the primary.
func startReplica(t *testing.T, p *replPrimary, o ReplicaOptions) *Replica {
	t.Helper()
	rep := NewReplica(p.url, o)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	rep.Start()
	t.Cleanup(rep.Stop)
	return rep
}

// waitRepl polls until pred holds, failing the test after a deadline.
func waitRepl(t *testing.T, rep *Replica, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica never %s: applied=%d primary_seq=%d connected=%v resyncs=%d",
		what, rep.AppliedSeq(), rep.PrimarySeq(), rep.Connected(), rep.Resyncs())
}

// applyMixedWrites drives n writes (≈80% inserts of fresh points, ≈20%
// deletes of known points) through eng.
func applyMixedWrites(t *testing.T, eng Engine, rng *rand.Rand, n int, pool []geom.Point) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 && len(pool) > 0 {
			if _, err := eng.DeleteContext(ctx, pool[rng.Intn(len(pool))]); err != nil {
				t.Fatalf("delete: %v", err)
			}
		} else {
			if err := eng.InsertContext(ctx, geom.Pt(rng.Float64(), rng.Float64())); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
}

// assertEnginesAnswerEqual requires got to answer point, window, and kNN
// queries identically to want — the convergence criterion of every
// fault-injection scenario (answers, not counts).
func assertEnginesAnswerEqual(t *testing.T, want, got Engine, pts []geom.Point) {
	t.Helper()
	ctx := context.Background()
	if w, g := want.Len(), got.Len(); w != g {
		t.Fatalf("Len: primary %d, replica %d", w, g)
	}
	probes := append([]geom.Point{geom.Pt(-3, -3), geom.Pt(2, 2)}, pts[:10]...)
	for _, p := range probes {
		w, err1 := want.PointQueryContext(ctx, p)
		g, err2 := got.PointQueryContext(ctx, p)
		if err1 != nil || err2 != nil || w != g {
			t.Fatalf("PointQuery(%v): primary %v (%v), replica %v (%v)", p, w, err1, g, err2)
		}
	}
	for wi, q := range workload.Windows(pts, 8, 0.01, 1, 99) {
		w, err1 := want.WindowQueryContext(ctx, q)
		g, err2 := got.WindowQueryContext(ctx, q)
		if err1 != nil || err2 != nil {
			t.Fatalf("window %d: %v, %v", wi, err1, err2)
		}
		if len(w) != len(g) {
			t.Fatalf("window %d: primary %d points, replica %d", wi, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("window %d point %d: primary %v, replica %v", wi, i, w[i], g[i])
			}
		}
	}
	for _, k := range []int{1, 7} {
		w, err1 := want.KNNContext(ctx, pts[3], k)
		g, err2 := got.KNNContext(ctx, pts[3], k)
		if err1 != nil || err2 != nil || len(w) != len(g) {
			t.Fatalf("kNN k=%d: %d (%v) vs %d (%v)", k, len(w), err1, len(g), err2)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("kNN k=%d point %d: primary %v, replica %v", k, i, w[i], g[i])
			}
		}
	}
}

// faultConn severs its connection once a read-byte budget is spent — the
// deterministic mid-stream link failure.
type faultConn struct {
	net.Conn
	budget atomic.Int64
}

func (c *faultConn) Read(b []byte) (int, error) {
	rem := c.budget.Load()
	if rem <= 0 {
		c.Conn.Close()
		return 0, errors.New("faultconn: link severed")
	}
	if int64(len(b)) > rem {
		b = b[:rem]
	}
	n, err := c.Conn.Read(b)
	c.budget.Add(-int64(n))
	return n, err
}

// faultDialer is the ReplicaOptions.Dial seam: per-attempt read budgets
// (-1 = unlimited) and a global refuse switch (partition).
type faultDialer struct {
	mu      sync.Mutex
	dials   int
	budgets []int64
	refuse  atomic.Bool
}

func (d *faultDialer) dial(addr string) (net.Conn, error) {
	if d.refuse.Load() {
		return nil, errors.New("faultdialer: partitioned")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	i := d.dials
	d.dials++
	budget := int64(-1)
	if i < len(d.budgets) {
		budget = d.budgets[i]
	}
	d.mu.Unlock()
	if budget >= 0 {
		fc := &faultConn{Conn: conn}
		fc.budget.Store(budget)
		return fc, nil
	}
	return conn, nil
}

func (d *faultDialer) dialCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

// TestReplicaLagCatchup: writes land on the primary both before the
// replica bootstraps and while it is not yet following; once started,
// the replica drains the backlog and converges to answer-identical
// state, and a write forwarded through the replica round-trips back via
// the feed.
func TestReplicaLagCatchup(t *testing.T) {
	eng, pts := testEngine(t)
	p := startReplPrimary(t, eng, "127.0.0.1:0", "127.0.0.1:0", 0)
	rng := rand.New(rand.NewSource(42))
	applyMixedWrites(t, p.repl.Engine(), rng, 250, pts)

	rep := NewReplica(p.url, fastReplicaOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.Bootstrap(ctx); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	t.Cleanup(rep.Stop)

	// The replica lags: the primary keeps applying writes while the
	// replica is not following yet.
	applyMixedWrites(t, p.repl.Engine(), rng, 800, pts)
	if rep.AppliedSeq() >= p.repl.LastSeq() {
		t.Fatalf("replica not lagging: applied %d, primary %d", rep.AppliedSeq(), p.repl.LastSeq())
	}

	rep.Start()
	target := p.repl.LastSeq()
	waitRepl(t, rep, "caught up", func() bool { return rep.AppliedSeq() >= target })
	assertEnginesAnswerEqual(t, p.idx, rep.Engine(), pts)
	if rep.Resyncs() != 0 {
		t.Fatalf("in-retention catch-up forced %d resyncs", rep.Resyncs())
	}

	// A write forwarded through the replica lands on the primary and
	// flows back down the feed.
	fwd := geom.Pt(0.31415, 0.92653)
	if err := rep.Engine().InsertContext(context.Background(), fwd); err != nil {
		t.Fatalf("forwarded insert: %v", err)
	}
	target = p.repl.LastSeq()
	waitRepl(t, rep, "applied forwarded write", func() bool { return rep.AppliedSeq() >= target })
	if found, err := rep.Engine().PointQueryContext(context.Background(), fwd); err != nil || !found {
		t.Fatalf("forwarded insert not visible on replica: %v, %v", found, err)
	}
	assertEnginesAnswerEqual(t, p.idx, rep.Engine(), pts)
}

// TestReplicaReconnectMidCatchup severs the feed connection partway
// through a large catch-up (byte-budgeted faultConn); the replica must
// reconnect, resume from its applied position without a resync, and
// converge.
func TestReplicaReconnectMidCatchup(t *testing.T) {
	eng, pts := testEngine(t)
	p := startReplPrimary(t, eng, "127.0.0.1:0", "127.0.0.1:0", 0)

	// First feed connection dies after 8 KiB — mid-stream, well inside
	// the ~60 KiB the catch-up below ships.
	fd := &faultDialer{budgets: []int64{8 << 10}}
	o := fastReplicaOptions()
	o.Dial = fd.dial
	rep := startReplica(t, p, o)

	rng := rand.New(rand.NewSource(7))
	applyMixedWrites(t, p.repl.Engine(), rng, 3000, pts)

	target := p.repl.LastSeq()
	waitRepl(t, rep, "converged after sever", func() bool { return rep.AppliedSeq() >= target })
	if n := fd.dialCount(); n < 2 {
		t.Fatalf("feed was never severed and redialed (dials=%d)", n)
	}
	if rep.Resyncs() != 0 {
		t.Fatalf("in-retention reconnect forced %d resyncs", rep.Resyncs())
	}
	assertEnginesAnswerEqual(t, p.idx, rep.Engine(), pts)
}

// TestReplicaOutOfRetentionResync partitions the feed until the
// replica's position falls out of the primary's (tiny) oplog ring; on
// reconnect the primary demands a resync and the replica re-bootstraps
// from a fresh snapshot, still converging.
func TestReplicaOutOfRetentionResync(t *testing.T) {
	eng, pts := testEngine(t)
	p := startReplPrimary(t, eng, "127.0.0.1:0", "127.0.0.1:0", 64)

	fd := &faultDialer{}
	fd.refuse.Store(true) // partitioned from the start
	o := fastReplicaOptions()
	o.Dial = fd.dial
	rep := startReplica(t, p, o)

	// 500 writes against 64 records of retention: the replica's position
	// is gone before it ever connects.
	rng := rand.New(rand.NewSource(13))
	applyMixedWrites(t, p.repl.Engine(), rng, 500, pts)
	fd.refuse.Store(false)

	target := p.repl.LastSeq()
	waitRepl(t, rep, "re-bootstrapped past retention", func() bool {
		return rep.AppliedSeq() >= target && rep.Resyncs() >= 1
	})
	assertEnginesAnswerEqual(t, p.idx, rep.Engine(), pts)
}

// TestPrimaryRestartFromSnapshot restarts the primary from its own
// snapshot on the same addresses — a new process life with a new epoch.
// The replica's stale-epoch handshake draws a resync, it re-bootstraps
// against the reborn primary, and converges on its post-restart writes.
func TestPrimaryRestartFromSnapshot(t *testing.T) {
	eng, pts := testEngine(t)
	pA := startReplPrimary(t, eng, "127.0.0.1:0", "127.0.0.1:0", 0)
	rep := startReplica(t, pA, fastReplicaOptions())

	rng := rand.New(rand.NewSource(23))
	applyMixedWrites(t, pA.repl.Engine(), rng, 300, pts)
	target := pA.repl.LastSeq()
	waitRepl(t, rep, "caught up pre-restart", func() bool { return rep.AppliedSeq() >= target })

	// The primary persists its snapshot and dies.
	epochA := pA.repl.Epoch()
	_, _, snap, err := pA.repl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	httpAddr := pA.url[len("http://"):]
	streamAddr := pA.streamAddr
	pA.stop()

	// Reborn on the same addresses from the snapshot, then diverges.
	idxB, err := rsmi.LoadSharded(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	pB := startReplPrimary(t, idxB, httpAddr, streamAddr, 0)
	if pB.repl.Epoch() == epochA {
		t.Fatal("restarted primary reused the old epoch")
	}
	applyMixedWrites(t, pB.repl.Engine(), rng, 200, pts)

	targetB := pB.repl.LastSeq()
	waitRepl(t, rep, "re-bootstrapped after primary restart", func() bool {
		return rep.stats().Epoch == pB.repl.Epoch() && rep.AppliedSeq() >= targetB
	})
	if rep.Resyncs() < 1 {
		t.Fatalf("restart converged without a resync (resyncs=%d)", rep.Resyncs())
	}
	assertEnginesAnswerEqual(t, pB.idx, rep.Engine(), pts)
}

// TestReplicaProtocolEquivalence is the cross-replica acceptance gate:
// after catch-up, the primary and a replica must answer window, kNN, and
// batch queries identically over HTTP JSON, HTTP binary, and the TCP
// stream — six client views of one logical data set.
func TestReplicaProtocolEquivalence(t *testing.T) {
	eng, pts := testEngine(t)
	p := startReplPrimary(t, eng, "127.0.0.1:0", "127.0.0.1:0", 0)
	rep := startReplica(t, p, fastReplicaOptions())

	rng := rand.New(rand.NewSource(31))
	applyMixedWrites(t, p.repl.Engine(), rng, 400, pts)
	target := p.repl.LastSeq()
	waitRepl(t, rep, "caught up", func() bool { return rep.AppliedSeq() >= target })

	// Serve the replica like rsmi-serve -replica-of does.
	_, repURL, repStream := startStreamServer(t, Config{Engine: rep.Engine(), Replica: rep})
	clients := map[string]*Client{
		"primary/http-json":   NewClient(p.url),
		"primary/http-binary": NewClient(p.url, WithProto(ProtoBinary)),
		"primary/tcp-stream":  NewClient(p.streamAddr, WithTransport(TransportTCP)),
		"replica/http-json":   NewClient(repURL),
		"replica/http-binary": NewClient(repURL, WithProto(ProtoBinary)),
		"replica/tcp-stream":  NewClient(repStream, WithTransport(TransportTCP)),
	}
	t.Cleanup(func() {
		for _, cl := range clients {
			cl.Close()
		}
	})

	for _, q := range workload.Windows(pts, 6, 0.01, 1, 72) {
		want, err := clients["primary/http-json"].WindowQuery(context.Background(), q)
		if err != nil {
			t.Fatalf("primary WindowQuery: %v", err)
		}
		for name, cl := range clients {
			got, err := cl.WindowQuery(context.Background(), q)
			if err != nil || len(got) != len(want) {
				t.Fatalf("%s WindowQuery: %d points, %v; want %d", name, len(got), err, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s WindowQuery point %d differs", name, i)
				}
			}
		}
	}
	for _, k := range []int{1, 9} {
		want, err := clients["primary/http-json"].KNN(context.Background(), pts[5], k)
		if err != nil {
			t.Fatalf("primary KNN: %v", err)
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
	win := geom.RectAround(pts[9], 0.1, 0.1)
	ops := []BatchOp{
		{Op: OpPoint, X: pts[0].X, Y: pts[0].Y},
		{Op: OpWindow, MinX: win.MinX, MinY: win.MinY, MaxX: win.MaxX, MaxY: win.MaxY},
		{Op: OpKNN, X: pts[1].X, Y: pts[1].Y, K: 3},
	}
	want, err := clients["primary/http-json"].Batch(context.Background(), ops)
	if err != nil {
		t.Fatalf("primary Batch: %v", err)
	}
	for name, cl := range clients {
		got, err := cl.Batch(context.Background(), ops)
		if err != nil || len(got) != len(want) {
			t.Fatalf("%s Batch: %d results, %v", name, len(got), err)
		}
		for i := range want {
			if got[i].Found != want[i].Found || got[i].Count != want[i].Count ||
				len(got[i].Points) != len(want[i].Points) {
				t.Fatalf("%s batch result %d: %+v vs %+v", name, i, got[i], want[i])
			}
		}
	}

	// A write sent to the replica forwards to the primary, then streams
	// back; every client on both servers ends up seeing it.
	ins := geom.Pt(0.717171, 0.828282)
	if err := clients["replica/tcp-stream"].Insert(context.Background(), ins); err != nil {
		t.Fatalf("replica stream Insert: %v", err)
	}
	if found, err := clients["primary/http-binary"].PointQuery(context.Background(), ins); err != nil || !found {
		t.Fatalf("forwarded insert not on primary: %v, %v", found, err)
	}
	target = p.repl.LastSeq()
	waitRepl(t, rep, "applied forwarded write", func() bool { return rep.AppliedSeq() >= target })
	if found, err := clients["replica/http-json"].PointQuery(context.Background(), ins); err != nil || !found {
		t.Fatalf("forwarded insert not back on replica: %v, %v", found, err)
	}

	// /v1/stats reports the replication role on both sides.
	pst, err := clients["primary/http-json"].Stats()
	if err != nil || pst.Replication == nil || pst.Replication.Role != "primary" {
		t.Fatalf("primary stats replication = %+v, %v", pst.Replication, err)
	}
	rst, err := clients["replica/http-json"].Stats()
	if err != nil || rst.Replication == nil || rst.Replication.Role != "replica" {
		t.Fatalf("replica stats replication = %+v, %v", rst.Replication, err)
	}
	if !rst.Replication.Connected || rst.Replication.AppliedSeq == 0 {
		t.Fatalf("replica stats: %+v", rst.Replication)
	}
}

// TestReplicaLagAccounting unit-tests the lag arithmetic against
// hand-set feed bookkeeping: caught-up is exactly 0, and a lagging
// replica's LagSeconds is the primary-clock distance plus local wait.
func TestReplicaLagAccounting(t *testing.T) {
	r := NewReplica("127.0.0.1:1", ReplicaOptions{Timeout: time.Second})

	// Caught up: both lags are exactly zero whatever the clocks say.
	r.applied.Store(10)
	r.primarySeq.Store(10)
	r.primaryClock.Store(time.Now().UnixNano() - int64(time.Hour))
	if got := r.LagSeq(); got != 0 {
		t.Fatalf("caught-up LagSeq = %d, want 0", got)
	}
	if got := r.LagSeconds(); got != 0 {
		t.Fatalf("caught-up LagSeconds = %v, want exactly 0", got)
	}

	// Two records behind, the applied one stamped 50ms before the
	// newest primary clock heard just now.
	base := time.Now().UnixNano()
	r.primarySeq.Store(12)
	r.appliedAt.Store(base - 50*int64(time.Millisecond))
	r.primaryClock.Store(base)
	r.frameLocal.Store(time.Now().UnixNano())
	if got := r.LagSeq(); got != 2 {
		t.Fatalf("LagSeq = %d, want 2", got)
	}
	if got := r.LagSeconds(); got < 0.05 || got > 2 {
		t.Fatalf("LagSeconds = %v, want ~0.05 (50ms primary-clock distance + local wait)", got)
	}

	// Behind but nothing heard on the feed yet: lag age is unknown, 0.
	r.primaryClock.Store(0)
	if got := r.LagSeconds(); got != 0 {
		t.Fatalf("pre-feed LagSeconds = %v, want 0", got)
	}
}

// TestReplicationLagTelemetryEndToEnd runs a real primary/replica pair
// and checks the full lag telemetry chain: the timestamped feed drives
// LagSeq/LagSeconds back to exactly 0 after catch-up, Ready flips true,
// /readyz answers 200, /v1/stats carries the lag fields, and the
// replica's /metrics page reports the zero lag gauges.
func TestReplicationLagTelemetryEndToEnd(t *testing.T) {
	eng, pts := testEngine(t)
	p := startReplPrimary(t, eng, "127.0.0.1:0", "127.0.0.1:0", 0)
	rng := rand.New(rand.NewSource(7))
	applyMixedWrites(t, p.repl.Engine(), rng, 300, pts)

	rep := startReplica(t, p, fastReplicaOptions())
	waitRepl(t, rep, "connected", func() bool { return rep.Connected() })
	// The snapshot already reflects the pre-start writes; drive more so
	// catch-up exercises the timestamped feed, not just the bootstrap.
	applyMixedWrites(t, p.repl.Engine(), rng, 200, pts)
	target := p.repl.LastSeq()
	waitRepl(t, rep, "caught up", func() bool { return rep.AppliedSeq() >= target })
	waitRepl(t, rep, "reported zero lag", func() bool {
		return rep.LagSeq() == 0 && rep.LagSeconds() == 0
	})
	if ready, reason := rep.Ready(1024); !ready {
		t.Fatalf("caught-up replica not ready: %s", reason)
	}
	st := rep.stats()
	if st.LagSeq != 0 || st.LagSeconds != 0 {
		t.Fatalf("stats lag = %d seq / %v s, want 0/0", st.LagSeq, st.LagSeconds)
	}

	// Serve the replica and check its operator surfaces.
	rs := New(Config{Engine: rep.Engine(), Replica: rep})
	defer rs.Shutdown(context.Background())
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve(rl)
	base := "http://" + rl.Addr().String()

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz on caught-up replica = %d, want 200", resp.StatusCode)
	}

	body := scrapeMetrics(t, base)
	for _, want := range []string{
		"rsmi_replication_role{role=\"replica\"} 1",
		"rsmi_replication_lag_seq 0",
		"rsmi_replication_lag_seconds 0",
		"rsmi_replication_connected 1",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("replica /metrics lacks %q", want)
		}
	}

	// New writes flow through and lag returns to zero again — the gauge
	// is live, not stuck at its initial value.
	applyMixedWrites(t, p.repl.Engine(), rng, 100, pts)
	target = p.repl.LastSeq()
	waitRepl(t, rep, "re-converged", func() bool {
		return rep.AppliedSeq() >= target && rep.LagSeq() == 0 && rep.LagSeconds() == 0
	})
}

// TestReplicaFeedAllocFollowsBytes is TestStreamFrameAllocFollowsBytes for
// the oplog feed: a primary that answers the handshake with a 4-byte length
// claiming 1 GiB and then hangs up must fail follow having allocated about
// one read buffer, not the claim.
func TestReplicaFeedAllocFollowsBytes(t *testing.T) {
	replica, primary := net.Pipe()
	go func() {
		defer primary.Close()
		var hs [64]byte
		primary.Read(hs[:]) // the handshake frame, in the replica's one write
		primary.Write([]byte{0, 0, 0, 0x40})
	}()
	rep := NewReplica("127.0.0.1:1", ReplicaOptions{
		ReadTimeout: 10 * time.Second,
		Dial:        func(string) (net.Conn, error) { return replica, nil },
	})
	defer rep.Stop()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := rep.follow()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("follow returned nil on a frame claiming 1 GiB and delivering nothing")
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(streamReadBuf+32<<10); got >= limit {
		t.Fatalf("a 4-byte feed frame made the replica allocate %d bytes, want < %d", got, limit)
	}
}

// FuzzReplFeed feeds arbitrary bytes to both readers of the oplog feed: the
// primary's handshake decoder, and the replica's frame applier over a small
// live index. Neither may panic; an accepted handshake re-encodes to the
// same position; and applyFrame moves the replica's position only by
// applying records one sequence at a time, whatever error it ends with.
// The committed corpus holds an ops frame, a heartbeat, a resync, a
// truncated record and a sequence gap.
func FuzzReplFeed(f *testing.F) {
	pts := dataset.Generate(dataset.Uniform, 200, 7)
	fresh := func() *shard.Sharded {
		return shard.New(pts, shard.Options{Shards: 2, Index: core.Options{
			BlockCapacity: 20, PartitionThreshold: 100, Epochs: 2, LearningRate: 0.1, Seed: 1,
		}})
	}
	rep := NewReplica("127.0.0.1:1", ReplicaOptions{})
	f.Cleanup(rep.Stop)
	rep.cur.Store(fresh())
	var tapped uint64
	rep.SetWriteTap(func(shard.WriteOp) { tapped++ })
	f.Fuzz(func(t *testing.T, data []byte) {
		if isReplHandshake(data) {
			if epoch, from, err := decodeReplHandshake(data); err == nil {
				e2, f2, err := decodeReplHandshake(appendReplHandshake(nil, epoch, from))
				if err != nil || e2 != epoch || f2 != from {
					t.Fatalf("handshake (%d, %d) re-decoded as (%d, %d), %v", epoch, from, e2, f2, err)
				}
			}
		}
		if rep.cur.Load().Len() > 2*len(pts) {
			rep.cur.Store(fresh()) // inserts accumulate across inputs
		}
		rep.applied.Store(0)
		tapped = 0
		err := rep.applyFrame(data)
		if got := rep.applied.Load(); got != tapped {
			t.Fatalf("applied seq %d after %d applied records (err %v)", got, tapped, err)
		}
	})
}
