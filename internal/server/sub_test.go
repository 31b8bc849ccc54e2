package server

// End-to-end tests for standing queries: SUB/UNSUB over the stream
// transport, push-frame delivery, the drop-and-mark slow-consumer
// contract, reconnect-resubscribe, replica fan-out, and the 5,000-
// subscription acceptance run whose notifications must agree with an
// oracle re-query.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/wire"
)

// waitNote reads the next notification or fails the test.
func waitNote(t *testing.T, notes <-chan wire.Notification, what string) wire.Notification {
	t.Helper()
	select {
	case n := <-notes:
		return n
	case <-time.After(10 * time.Second):
		t.Fatalf("no notification for %s", what)
		return wire.Notification{}
	}
}

// TestSubscribeWindowE2E walks the basic lifecycle: subscribe, get
// notified for matching inserts and deletes only, unsubscribe, go
// silent. HTTP clients are told to use the stream transport.
func TestSubscribeWindowE2E(t *testing.T) {
	eng, _ := testEngine(t)
	_, httpURL, streamAddr := startStreamServer(t, Config{Engine: eng})

	cl := NewClient(streamAddr, WithTransport(TransportTCP))
	defer cl.Close()
	ctx := context.Background()
	notes, err := cl.Notifications()
	if err != nil {
		t.Fatal(err)
	}

	win := geom.Rect{MinX: 0.40, MinY: 0.40, MaxX: 0.60, MaxY: 0.60}
	if err := cl.SubscribeWindow(ctx, 1, win); err != nil {
		t.Fatal(err)
	}

	in := geom.Pt(0.512345, 0.543210)
	if err := cl.Insert(ctx, in); err != nil {
		t.Fatal(err)
	}
	n := waitNote(t, notes, "matching insert")
	if n.SubID != 1 || n.Kind != OpInsert || n.Point != in || n.Missed {
		t.Fatalf("insert notification = %+v", n)
	}

	// A write outside the window is silent; the next matching one shows
	// up without anything in between (pushes preserve write order).
	if err := cl.Insert(ctx, geom.Pt(0.912345, 0.987654)); err != nil {
		t.Fatal(err)
	}
	if deleted, err := cl.Delete(ctx, in); err != nil || !deleted {
		t.Fatalf("delete: %v %v", deleted, err)
	}
	n = waitNote(t, notes, "matching delete")
	if n.SubID != 1 || n.Kind != OpDelete || n.Point != in {
		t.Fatalf("delete notification = %+v", n)
	}

	// After unsubscribing, sub 1 is silent: a sentinel subscription
	// proves the write flowed while nothing arrived for sub 1.
	if err := cl.Unsubscribe(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.SubscribeWindow(ctx, 2, win); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert(ctx, in); err != nil {
		t.Fatal(err)
	}
	n = waitNote(t, notes, "sentinel insert")
	if n.SubID != 2 || n.Kind != OpInsert || n.Point != in {
		t.Fatalf("post-unsubscribe notification = %+v (sub 1 should be gone)", n)
	}

	// Standing queries need the persistent connection: the HTTP client
	// refuses rather than silently never delivering.
	hcl := NewClient(httpURL)
	defer hcl.Close()
	if err := hcl.SubscribeWindow(ctx, 1, win); !errors.Is(err, errNoStream) {
		t.Fatalf("HTTP subscribe error = %v, want errNoStream", err)
	}
	if _, err := hcl.Notifications(); !errors.Is(err, errNoStream) {
		t.Fatalf("HTTP notifications error = %v, want errNoStream", err)
	}
}

// TestSubscribeKNNE2E checks the kNN shape end to end: an insert
// closer than the current kth member displaces it — one delete, one
// insert notification, in that order.
func TestSubscribeKNNE2E(t *testing.T) {
	eng, _ := testEngine(t)
	_, _, streamAddr := startStreamServer(t, Config{Engine: eng})

	cl := NewClient(streamAddr, WithTransport(TransportTCP))
	defer cl.Close()
	ctx := context.Background()
	notes, err := cl.Notifications()
	if err != nil {
		t.Fatal(err)
	}

	center := geom.Pt(0.5, 0.5)
	if err := cl.SubscribeKNN(ctx, 9, center, 3); err != nil {
		t.Fatal(err)
	}
	// The dataset has 2000 points, so the membership is full; a point at
	// the center itself is certainly closer than the 3rd nearest.
	if err := cl.Insert(ctx, center); err != nil {
		t.Fatal(err)
	}
	n := waitNote(t, notes, "knn displacement")
	if n.SubID != 9 || n.Kind != OpDelete {
		t.Fatalf("first knn notification = %+v, want a displacement delete", n)
	}
	n = waitNote(t, notes, "knn admit")
	if n.SubID != 9 || n.Kind != OpInsert || n.Point != center {
		t.Fatalf("second knn notification = %+v, want insert of the center", n)
	}
}

// TestSubscribeValidationErrors pins the error surface: sub ops ride
// only single-op stream frames, malformed shapes answer 400, and a
// server whose engine exposes no write hooks answers 501.
func TestSubscribeValidationErrors(t *testing.T) {
	eng, _ := testEngine(t)
	_, _, streamAddr := startStreamServer(t, Config{Engine: eng})

	dial := func(addr string) (net.Conn, *bufio.Reader) {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, bufio.NewReader(c)
	}
	frame := func(id uint64, ops ...BatchOp) []byte { return pending{}.frame(t, id, false, ops...) }
	wantStatus := func(c net.Conn, br *bufio.Reader, frame []byte, code int) {
		t.Helper()
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		id, _ := binary.Uvarint(frame[4:])
		gotID, resp, err := wire.ReadStreamFrame(br, streamMaxResponseFrame, nil)
		if err != nil || gotID != id {
			t.Fatalf("response frame: id=%d err=%v", gotID, err)
		}
		_, _, rerr := wire.DecodeStreamResponse(resp, nil)
		var se *wire.StatusError
		if !errors.As(rerr, &se) || se.Code != code {
			t.Fatalf("response error = %v, want a status-1 code %d", rerr, code)
		}
	}

	c, br := dial(streamAddr)
	window := BatchOp{Op: wire.OpSub, SubID: 1, SubKind: wire.SubWindow, MaxX: 1, MaxY: 1}

	// A sub op inside a multi-op batch is rejected wholesale.
	wantStatus(c, br, frame(1, BatchOp{Op: OpInsert, X: 0.5, Y: 0.5}, window), 400)

	// Non-finite window coordinates.
	wantStatus(c, br, frame(2, BatchOp{Op: wire.OpSub, SubID: 1, SubKind: wire.SubWindow,
		MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}), 400)

	// Inverted window (registry-level validation).
	wantStatus(c, br, frame(3, BatchOp{Op: wire.OpSub, SubID: 1, SubKind: wire.SubWindow,
		MinX: 0.9, MinY: 0, MaxX: 0.1, MaxY: 1}), 400)

	// Unknown subscription-kind byte: a window subscription cut after its
	// kind byte (length word, id, header, count, op byte, sub id, kind),
	// which is patched.
	unknownKind := frame(4, window)[:12]
	unknownKind[11] = 99
	wire.CloseFrame(unknownKind, 0)
	wantStatus(c, br, unknownKind, 400)

	// k = 0 for a kNN subscription.
	wantStatus(c, br, frame(5, BatchOp{Op: wire.OpSub, SubID: 1, SubKind: wire.SubKNN, X: 0.5, Y: 0.5, K: 0}), 400)

	// The connection survived all of that: a valid subscribe works.
	reqs := pending{}
	if _, err := c.Write(reqs.frame(t, 6, false, window)); err != nil {
		t.Fatal(err)
	}
	if rs := readAnswers(t, c, br, reqs, 1)[6]; len(rs) != 1 || !rs[0].Flag {
		t.Fatalf("valid subscribe answer: %+v", rs)
	}

	// An engine that hides its write hooks (interface embedding drops
	// AddWriteHook) leaves the server without a registry: 501.
	_, _, noHookAddr := startStreamServer(t, Config{Engine: struct{ Engine }{eng}})
	c2, br2 := dial(noHookAddr)
	wantStatus(c2, br2, frame(1, window), 501)

	// DisableSubs forces the same refusal on a capable engine.
	_, _, offAddr := startStreamServer(t, Config{Engine: eng, DisableSubs: true})
	c3, br3 := dial(offAddr)
	wantStatus(c3, br3, frame(1, window), 501)
}

// TestSubscribeSlowConsumer pins the back-pressure contract end to end:
// a subscriber that stops reading loses notifications (server-side
// drop counter moves) but never slows the write path or healthy
// subscribers on other connections.
func TestSubscribeSlowConsumer(t *testing.T) {
	eng, _ := testEngine(t)
	s, _, streamAddr := startStreamServer(t, Config{Engine: eng, SubOutbox: 64})

	// The slow consumer: subscribes to everything over a raw connection
	// with a tiny receive buffer, then never reads again.
	raw, err := net.Dial("tcp", streamAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetReadBuffer(1)
	}
	reqs := pending{}
	if _, err := raw.Write(reqs.frame(t, 1, false, BatchOp{Op: wire.OpSub, SubID: 1, SubKind: wire.SubWindow, MaxX: 1, MaxY: 1})); err != nil {
		t.Fatal(err)
	}
	if rs := readAnswers(t, raw, bufio.NewReader(raw), reqs, 1)[1]; len(rs) != 1 || !rs[0].Flag {
		t.Fatalf("subscribe answer: %+v", rs)
	}
	// From here on the raw connection is never read again.

	// A healthy subscriber on its own connection.
	cl := NewClient(streamAddr, WithTransport(TransportTCP))
	defer cl.Close()
	ctx := context.Background()
	notes, err := cl.Notifications()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SubscribeWindow(ctx, 1, geom.Rect{MaxX: 1, MaxY: 1}); err != nil {
		t.Fatal(err)
	}

	// Write until the stalled consumer's outbox overflows. Every insert
	// must stay fast — the matcher never blocks on a full outbox.
	rng := rand.New(rand.NewSource(99))
	deadline := time.Now().Add(30 * time.Second)
	var wrote int
	for s.subs.Counters().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no drops after %d writes against a stalled subscriber", wrote)
		}
		start := time.Now()
		if err := cl.Insert(ctx, geom.Pt(rng.Float64(), rng.Float64())); err != nil {
			t.Fatalf("insert %d: %v", wrote, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("insert %d took %v with a stalled subscriber", wrote, d)
		}
		wrote++
	}

	// The healthy subscriber saw notifications throughout; drain a few.
	for i := 0; i < 3; i++ {
		n := waitNote(t, notes, "healthy subscriber")
		if n.Missed {
			t.Fatalf("healthy subscriber marked missed: %+v", n)
		}
	}
}

// TestSubscribeReconnectResubscribe restarts the server under a live
// subscription: the client's keeper redials, replays the subscription,
// and surfaces a synthetic Missed marker so the consumer knows to
// re-query the gap.
func TestSubscribeReconnectResubscribe(t *testing.T) {
	eng, _ := testEngine(t)
	cfg := Config{Engine: eng}

	s1 := New(cfg)
	l1 := listenRetry(t, "127.0.0.1:0")
	go s1.ServeStream(l1)
	addr := l1.Addr().String()

	cl := NewClient(addr, WithTransport(TransportTCP))
	defer cl.Close()
	ctx := context.Background()
	notes, err := cl.Notifications()
	if err != nil {
		t.Fatal(err)
	}
	win := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	if err := cl.SubscribeWindow(ctx, 3, win); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert(ctx, geom.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	if n := waitNote(t, notes, "pre-restart insert"); n.Kind != OpInsert {
		t.Fatalf("pre-restart notification = %+v", n)
	}

	// Restart on the same address.
	{
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s1.Shutdown(sctx); err != nil {
			t.Fatalf("first shutdown: %v", err)
		}
		cancel()
	}
	s2 := New(cfg)
	l2 := listenRetry(t, addr)
	go s2.ServeStream(l2)
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Shutdown(sctx); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	})

	// The keeper notices the dead connection, redials, replays sub 3,
	// and marks the gap.
	n := waitNote(t, notes, "reconnect marker")
	if n.SubID != 3 || !n.Missed || n.Kind != "" {
		t.Fatalf("reconnect marker = %+v, want synthetic missed for sub 3", n)
	}

	// Fresh writes flow again. The data-plane pool also lost its
	// connections; retry the first insert while it re-establishes.
	in := geom.Pt(0.55, 0.55)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := cl.Insert(ctx, in); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("insert after restart: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	n = waitNote(t, notes, "post-restart insert")
	if n.SubID != 3 || n.Kind != OpInsert || n.Point != in {
		t.Fatalf("post-restart notification = %+v", n)
	}
}

// TestReplicaSubscribeNotify subscribes against a read replica and
// writes through the primary: the replica's applied oplog records feed
// the matcher, so subscribers see the write after replication.
func TestReplicaSubscribeNotify(t *testing.T) {
	idx, _ := testEngine(t)
	p := startReplPrimary(t, idx, "127.0.0.1:0", "127.0.0.1:0", 4096)
	rep := startReplica(t, p, fastReplicaOptions())
	_, _, repStream := startStreamServer(t, Config{Engine: rep.Engine(), Replica: rep})

	cl := NewClient(repStream, WithTransport(TransportTCP))
	defer cl.Close()
	ctx := context.Background()
	notes, err := cl.Notifications()
	if err != nil {
		t.Fatal(err)
	}
	win := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.3, MaxY: 0.3}
	if err := cl.SubscribeWindow(ctx, 1, win); err != nil {
		t.Fatal(err)
	}

	wcl := NewClient(p.url)
	defer wcl.Close()
	in := geom.Pt(0.25, 0.25)
	if err := wcl.Insert(ctx, in); err != nil {
		t.Fatal(err)
	}

	n := waitNote(t, notes, "replicated insert")
	if n.SubID != 1 || n.Kind != OpInsert || n.Point != in {
		t.Fatalf("replica notification = %+v", n)
	}
}

// TestStandingQueryAcceptance is the ISSUE's acceptance run: 5,000
// concurrent window subscriptions on one server, concurrent writers,
// and three checks — every subscription's notification multiset equals
// the write stream filtered to its window, nothing is marked missed,
// and for sampled subscriptions the final window query equals the
// pre-write baseline plus notified inserts minus notified deletes
// (the oracle re-query).
func TestStandingQueryAcceptance(t *testing.T) {
	const (
		nSubs    = 5000
		nWriters = 4
		nWrites  = 250 // per writer
		side     = 0.02
	)
	eng, _ := testEngine(t)
	_, _, streamAddr := startStreamServer(t, Config{Engine: eng, SubOutbox: 1 << 15})

	cl := NewClient(streamAddr, WithTransport(TransportTCP))
	defer cl.Close()
	ctx := context.Background()

	// Windows and the write plan are fixed up front so the expected
	// notification multiset is known exactly. Writer coordinates are
	// unique (distinct rng draws), and each delete targets a point the
	// same writer inserted earlier, so apply order per point is fixed.
	rng := rand.New(rand.NewSource(2026))
	wins := make([]geom.Rect, nSubs+1) // 1-based sub ids
	for i := 1; i <= nSubs; i++ {
		wins[i] = geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), side, side)
	}
	type write struct {
		kind string
		p    geom.Point
	}
	plans := make([][]write, nWriters)
	expected := make([]map[write]int, nSubs+1)
	for i := range expected {
		expected[i] = map[write]int{}
	}
	var totalExpected int
	for w := 0; w < nWriters; w++ {
		var mine []geom.Point
		for i := 0; i < nWrites; i++ {
			var wr write
			if len(mine) > 4 && rng.Intn(5) == 0 {
				wr = write{kind: OpDelete, p: mine[len(mine)-1]}
				mine = mine[:len(mine)-1]
			} else {
				wr = write{kind: OpInsert, p: geom.Pt(rng.Float64(), rng.Float64())}
				mine = append(mine, wr.p)
			}
			plans[w] = append(plans[w], wr)
			for id := 1; id <= nSubs; id++ {
				if wins[id].Contains(wr.p) {
					expected[id][wr]++
					totalExpected++
				}
			}
		}
	}

	// Baselines for the oracle re-query, taken before any write.
	sample := map[int][]geom.Point{}
	for id := 1; id <= nSubs && len(sample) < 50; id += 97 {
		pts, err := cl.WindowQuery(ctx, wins[id])
		if err != nil {
			t.Fatal(err)
		}
		sample[id] = pts
	}

	notes, err := cl.Notifications()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := make([]map[write]int, nSubs+1)
	for i := range got {
		got[i] = map[write]int{}
	}
	var received int
	var missed, synthetic bool
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for n := range notes {
			mu.Lock()
			if n.Kind == "" {
				synthetic = true
			} else {
				got[n.SubID][write{kind: n.Kind, p: n.Point}]++
				received++
			}
			if n.Missed {
				missed = true
			}
			mu.Unlock()
		}
	}()

	for id := 1; id <= nSubs; id++ {
		if err := cl.SubscribeWindow(ctx, uint64(id), wins[id]); err != nil {
			t.Fatalf("subscribe %d: %v", id, err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(plan []write) {
			defer wg.Done()
			for _, wr := range plan {
				var err error
				if wr.kind == OpInsert {
					err = cl.Insert(ctx, wr.p)
				} else {
					var deleted bool
					deleted, err = cl.Delete(ctx, wr.p)
					if err == nil && !deleted {
						err = errors.New("planned delete missed")
					}
				}
				if err != nil {
					t.Errorf("write %+v: %v", wr, err)
					return
				}
			}
		}(plans[w])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Wait for the tail of the notification stream to drain.
	deadline := time.Now().Add(60 * time.Second)
	for {
		mu.Lock()
		n := received
		mu.Unlock()
		if n >= totalExpected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d notifications, expected %d", n, totalExpected)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // surplus notifications would arrive here

	mu.Lock()
	defer mu.Unlock()
	if missed || synthetic {
		t.Fatalf("missed=%v synthetic=%v: nothing should drop at this scale", missed, synthetic)
	}
	if received != totalExpected {
		t.Fatalf("received %d notifications, expected exactly %d", received, totalExpected)
	}
	for id := 1; id <= nSubs; id++ {
		if len(got[id]) != len(expected[id]) {
			t.Fatalf("sub %d: %d distinct events, want %d", id, len(got[id]), len(expected[id]))
		}
		for ev, n := range expected[id] {
			if got[id][ev] != n {
				t.Fatalf("sub %d event %+v: got %d, want %d", id, ev, got[id][ev], n)
			}
		}
	}

	// Oracle re-query on the sampled subscriptions: baseline plus
	// notified inserts minus notified deletes equals a fresh query.
	for id, base := range sample {
		want := map[geom.Point]int{}
		for _, p := range base {
			want[p]++
		}
		for ev, n := range got[id] {
			if ev.kind == OpInsert {
				want[ev.p] += n
			} else {
				want[ev.p] -= n
			}
		}
		pts, err := cl.WindowQuery(ctx, wins[id])
		if err != nil {
			t.Fatal(err)
		}
		have := map[geom.Point]int{}
		for _, p := range pts {
			have[p]++
		}
		for p, n := range want {
			if n != 0 && have[p] != n {
				t.Fatalf("sub %d oracle: point %v count %d, want %d", id, p, have[p], n)
			}
		}
		for p, n := range have {
			if want[p] != n {
				t.Fatalf("sub %d oracle: unexpected point %v ×%d", id, p, n)
			}
		}
	}
}

// FuzzSubscribeFrame asserts the rsmibin decoder never panics on
// arbitrary sub/unsub bytes, and that accepted subscription ops
// round-trip through the encoder.
func FuzzSubscribeFrame(f *testing.F) {
	mk := func(op BatchOp) []byte {
		b, _ := wire.AppendOps(nil, []BatchOp{op}, false, false)
		return b
	}
	f.Add(mk(BatchOp{Op: wire.OpSub, SubID: 1, SubKind: wire.SubWindow, MinX: 0.1, MinY: 0.2, MaxX: 0.8, MaxY: 0.9}))
	f.Add(mk(BatchOp{Op: wire.OpSub, SubID: 1 << 40, SubKind: wire.SubKNN, X: 0.5, Y: 0.5, K: 16}))
	f.Add(mk(BatchOp{Op: wire.OpUnsub, SubID: 7}))
	// Unknown kind byte (after header, count, op byte and id) and a
	// truncated window.
	unknown := mk(BatchOp{Op: wire.OpSub, SubID: 1, SubKind: wire.SubWindow})[:7]
	unknown[6] = 99
	f.Add(unknown)
	f.Add(mk(BatchOp{Op: wire.OpSub, SubID: 1, SubKind: wire.SubWindow, MaxX: 1, MaxY: 1})[:12])
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, _, err := wire.DecodeOps(data, false)
		if err != nil {
			return
		}
		for _, op := range ops {
			if op.Op != wire.OpSub && op.Op != wire.OpUnsub {
				continue
			}
			// Re-encode and re-decode: subscription fields survive.
			b, aerr := wire.AppendOps(nil, []BatchOp{op}, false, false)
			if aerr != nil {
				t.Fatalf("decoded op does not re-encode: %+v: %v", op, aerr)
			}
			ops2, _, derr := wire.DecodeOps(b, false)
			if derr != nil || len(ops2) != 1 {
				t.Fatalf("re-decode: %v (%d ops)", derr, len(ops2))
			}
			if got := ops2[0]; got.Op != op.Op || got.SubID != op.SubID || got.SubKind != op.SubKind ||
				math.Float64bits(got.MinX) != math.Float64bits(op.MinX) ||
				math.Float64bits(got.MaxY) != math.Float64bits(op.MaxY) ||
				math.Float64bits(got.X) != math.Float64bits(op.X) || got.K != op.K {
				t.Fatalf("round-trip changed the Op: %+v vs %+v", got, op)
			}
		}
	})
}
