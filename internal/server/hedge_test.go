package server

// Tests for the hedged-read client: the hedge firing after the delay and
// winning, the first leg winning without a hedge, immediate failover on
// transport errors, loser cancellation observed inside the losing
// server's engine, write-StatusError never retried, and torn-result-free
// behaviour under concurrent hedged clients (run with -race).

import (
	"context"
	"math/rand"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/workload"
)

// stallEngine blocks reads until their context ends, reporting the
// context error it observed — the loser-cancellation witness.
type stallEngine struct {
	Engine
	entered chan struct{}
	ctxErr  chan error
}

func newStallEngine(e Engine) *stallEngine {
	return &stallEngine{Engine: e, entered: make(chan struct{}, 16), ctxErr: make(chan error, 16)}
}

func (e *stallEngine) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	e.entered <- struct{}{}
	<-ctx.Done()
	e.ctxErr <- ctx.Err()
	return false, ctx.Err()
}

// countEngine tallies writes reaching the engine.
type countEngine struct {
	Engine
	inserts atomic.Int64
}

func (e *countEngine) InsertContext(ctx context.Context, p geom.Point) error {
	e.inserts.Add(1)
	return e.Engine.InsertContext(ctx, p)
}

// startHTTPTarget serves eng over httptest and returns a JSON client.
func startHTTPTarget(t *testing.T, eng Engine) *Client {
	return startHTTPTargetProto(t, eng, ProtoJSON)
}

// startHTTPTargetProto is startHTTPTarget with an explicit wire protocol
// (binary lets tests ship NaN coordinates the JSON marshaller refuses).
func startHTTPTargetProto(t *testing.T, eng Engine, proto Proto) *Client {
	t.Helper()
	s := New(Config{Engine: eng})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return NewClient(hs.URL, WithProto(proto))
}

// deadTarget returns a client pointed at a port nothing listens on.
func deadTarget(t *testing.T) *Client {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return NewClient("http://" + addr)
}

// The round-robin pair() of a fresh HedgedClient sends the FIRST call to
// targets[1] with targets[0] as its hedge; the hedge tests lay their
// fast/slow servers out accordingly and make exactly one call per
// client.

// TestHedgedReadHedgeWins stalls the first leg: the hedge fires after
// the delay, answers first, and the loser's engine observes its context
// cancelled — the no-leaked-in-flight-work guarantee.
func TestHedgedReadHedgeWins(t *testing.T) {
	eng, pts := testEngine(t)
	stall := newStallEngine(eng)
	fast := startHTTPTarget(t, eng)   // targets[0]: hedge leg
	slow := startHTTPTarget(t, stall) // targets[1]: first leg
	// The delay is also how long the first leg has to get through its
	// server to the stalled engine before the hedge can win and cancel it:
	// at 2 ms a loaded 2-vCPU box sometimes cancelled it on the way in.
	h := NewHedgedClient([]*Client{fast, slow}, HedgedOptions{Delay: 50 * time.Millisecond})
	t.Cleanup(h.Close)

	found, err := h.PointQuery(context.Background(), pts[0])
	if err != nil || !found {
		t.Fatalf("hedged PointQuery = %v, %v; want true", found, err)
	}
	if h.Hedges() != 1 || h.HedgeWins() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", h.Hedges(), h.HedgeWins())
	}
	select {
	case <-stall.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first leg never reached its engine")
	}
	select {
	case err := <-stall.ctxErr:
		if err == nil {
			t.Fatal("loser observed nil context error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("loser's context was never cancelled after the hedge won")
	}
}

// TestHedgedReadFirstWins gives the first leg a fast server and an
// hour-long hedge delay: the answer arrives with no hedge fired.
func TestHedgedReadFirstWins(t *testing.T) {
	eng, pts := testEngine(t)
	slow := startHTTPTarget(t, newStallEngine(eng)) // targets[0]: never reached
	fast := startHTTPTarget(t, eng)                 // targets[1]: first leg
	h := NewHedgedClient([]*Client{slow, fast}, HedgedOptions{Delay: time.Hour})
	t.Cleanup(h.Close)

	found, err := h.PointQuery(context.Background(), pts[0])
	if err != nil || !found {
		t.Fatalf("PointQuery = %v, %v; want true", found, err)
	}
	if h.Hedges() != 0 || h.HedgeWins() != 0 {
		t.Fatalf("hedges=%d wins=%d, want 0/0", h.Hedges(), h.HedgeWins())
	}
}

// TestHedgedReadFailover kills the first leg's server: the hedge fires
// immediately (no delay wait) and the read still succeeds — the
// mechanism that keeps serving through a replica crash.
func TestHedgedReadFailover(t *testing.T) {
	eng, pts := testEngine(t)
	good := startHTTPTarget(t, eng) // targets[0]: hedge leg
	dead := deadTarget(t)           // targets[1]: first leg, refused
	h := NewHedgedClient([]*Client{good, dead}, HedgedOptions{Delay: time.Hour})
	t.Cleanup(h.Close)

	start := time.Now()
	got, err := h.WindowQuery(context.Background(), geom.RectAround(pts[0], 0.05, 0.05))
	if err != nil {
		t.Fatalf("hedged WindowQuery with one dead target: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("window around an indexed point returned nothing")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("failover waited %v — hedge did not fire on first-leg error", elapsed)
	}
	if h.Hedges() != 1 || h.HedgeWins() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", h.Hedges(), h.HedgeWins())
	}

	// A write fails over too.
	ins := geom.Pt(0.606060, 0.505050)
	if err := h.Insert(context.Background(), ins); err != nil {
		t.Fatalf("failover Insert: %v", err)
	}
	if found, err := good.PointQuery(context.Background(), ins); err != nil || !found {
		t.Fatalf("failover insert not applied: %v, %v", found, err)
	}
}

// TestHedgedBothFail: every leg failing surfaces the first error.
func TestHedgedBothFail(t *testing.T) {
	h := NewHedgedClient([]*Client{deadTarget(t), deadTarget(t)}, HedgedOptions{Delay: time.Millisecond})
	t.Cleanup(h.Close)
	if _, err := h.PointQuery(context.Background(), geom.Pt(0.5, 0.5)); err == nil {
		t.Fatal("both targets dead, yet no error")
	}
}

// TestHedgedWriteStatusErrorNoRetry: a server's own rejection
// (*StatusError) is an answer, not a transport failure — failover must
// not replay the write against the alternate target.
func TestHedgedWriteStatusErrorNoRetry(t *testing.T) {
	eng, _ := testEngine(t)
	alt := &countEngine{Engine: eng}
	altCl := startHTTPTargetProto(t, alt, ProtoBinary) // targets[0]: the would-be retry
	first := startHTTPTargetProto(t, eng, ProtoBinary) // targets[1]: first leg
	h := NewHedgedClient([]*Client{altCl, first}, HedgedOptions{})
	t.Cleanup(h.Close)

	// NaN coordinates draw a 400 from validation on the first target.
	err := h.Insert(context.Background(), geom.Pt(nan(), 0.5))
	if !isStatusError(err) {
		t.Fatalf("invalid insert returned %v, want *StatusError", err)
	}
	if n := alt.inserts.Load(); n != 0 {
		t.Fatalf("StatusError write was retried %d times on the alternate", n)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestHedgedConcurrentConsistent runs many goroutines through one hedged
// client with an aggressive delay, checking every answer against the
// engine directly — no duplicated, torn, or cross-wired results under
// concurrency (meaningful under -race).
func TestHedgedConcurrentConsistent(t *testing.T) {
	eng, pts := testEngine(t)
	a := startHTTPTarget(t, eng)
	b := startHTTPTarget(t, eng)
	h := NewHedgedClient([]*Client{a, b}, HedgedOptions{Delay: 200 * time.Microsecond})
	t.Cleanup(h.Close)

	windows := workload.Windows(pts, 16, 0.01, 1, 5)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < 40; i++ {
				switch rng.Intn(3) {
				case 0:
					p := pts[rng.Intn(len(pts))]
					want, _ := eng.PointQueryContext(ctx, p)
					got, err := h.PointQuery(context.Background(), p)
					if err != nil || got != want {
						t.Errorf("worker %d: PointQuery(%v) = %v, %v; want %v", w, p, got, err, want)
						return
					}
				case 1:
					q := windows[rng.Intn(len(windows))]
					want, _ := eng.WindowQueryContext(ctx, q)
					got, err := h.WindowQuery(context.Background(), q)
					if err != nil || len(got) != len(want) {
						t.Errorf("worker %d: WindowQuery = %d pts, %v; want %d", w, len(got), err, len(want))
						return
					}
					for j := range want {
						if got[j] != want[j] {
							t.Errorf("worker %d: torn window result at %d", w, j)
							return
						}
					}
				default:
					p := pts[rng.Intn(len(pts))]
					want, _ := eng.KNNContext(ctx, p, 5)
					got, err := h.KNN(context.Background(), p, 5)
					if err != nil || len(got) != len(want) {
						t.Errorf("worker %d: KNN = %d pts, %v; want %d", w, len(got), err, len(want))
						return
					}
					for j := range want {
						if got[j] != want[j] {
							t.Errorf("worker %d: torn kNN result at %d", w, j)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Read-only batches hedge; batches carrying writes take the failover
	// path instead (exactly-once against a single healthy target).
	preHedges := h.Hedges()
	res, err := h.Batch(context.Background(), []BatchOp{
		{Op: OpPoint, X: pts[0].X, Y: pts[0].Y},
		{Op: OpInsert, X: 0.515, Y: 0.525},
	})
	if err != nil || len(res) != 2 || !res[1].OK {
		t.Fatalf("write batch: %+v, %v", res, err)
	}
	if h.Hedges() != preHedges {
		t.Fatalf("write-carrying batch was hedged (hedges %d -> %d)", preHedges, h.Hedges())
	}
}

// TestHedgedStatusErrorRead: a read answered with a StatusError (not a
// transport failure) still hedges — the other target may be healthy —
// but when both agree on the rejection, the client sees it.
func TestHedgedStatusErrorRead(t *testing.T) {
	eng, _ := testEngine(t)
	a := startHTTPTarget(t, eng)
	b := startHTTPTarget(t, eng)
	h := NewHedgedClient([]*Client{a, b}, HedgedOptions{})
	t.Cleanup(h.Close)

	inverted := geom.Rect{MinX: 0.9, MinY: 0.9, MaxX: 0.1, MaxY: 0.1}
	if _, err := h.WindowQuery(context.Background(), inverted); !isStatusError(err) {
		t.Fatalf("inverted window returned %v, want *StatusError", err)
	}
}
