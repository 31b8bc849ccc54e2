package sub

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/shard"
)

// drainSink collects everything sent to it (buffered far beyond any
// test's event count, so it never refuses).
type drainSink struct{ C chan Notification }

func newDrainSink() *drainSink { return newDrainSinkN(1 << 16) }

// newDrainSinkN sizes the buffer explicitly — tests that build
// thousands of sinks keep it small so the eager channel-buffer
// allocation stays cheap.
func newDrainSinkN(n int) *drainSink { return &drainSink{C: make(chan Notification, n)} }

func (s *drainSink) Send(n Notification) bool {
	select {
	case s.C <- n:
		return true
	default:
		return false
	}
}

func (s *drainSink) collected() []Notification {
	var out []Notification
	for {
		select {
		case n := <-s.C:
			out = append(out, n)
		default:
			return out
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWindowOracle is the matcher correctness property for window
// subscriptions: feed a random write stream through Offer, and the
// notification sequence must equal the stream filtered to the window —
// exactly what re-running the window query before and after each write
// would show, in order.
func TestWindowOracle(t *testing.T) {
	r := NewRegistry(nil)
	sink := newDrainSink()
	win := geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.6, MaxY: 0.6}
	if err := r.Subscribe(1, Spec{ID: 7, Kind: KindWindow, Window: win}, sink); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	var want []Notification
	for i := 0; i < 5000; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		kind := shard.WriteInsert
		switch rng.Intn(10) {
		case 0:
			kind = shard.WriteDelete
		case 1:
			// Rebuilds must be ignored by the matcher.
			r.Offer(shard.WriteOp{Kind: shard.WriteRebuild})
			continue
		}
		r.Offer(shard.WriteOp{Kind: kind, P: p})
		if win.Contains(p) {
			want = append(want, Notification{SubID: 7, Kind: kind, P: p})
		}
	}
	r.Close() // drains the queue

	got := sink.collected()
	if len(got) != len(want) {
		t.Fatalf("got %d notifications, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].SubID != want[i].SubID || got[i].Kind != want[i].Kind || got[i].P != want[i].P {
			t.Fatalf("notification %d = %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Missed {
			t.Fatalf("notification %d marked missed with an unbounded sink", i)
		}
	}
	c := r.Counters()
	if c.Notified != int64(len(want)) || c.Dropped != 0 {
		t.Fatalf("counters %+v, want notified=%d dropped=0", c, len(want))
	}
}

// TestKNNIncremental walks a kNN subscription through the three member
// transitions: admit-while-filling, displace-farthest on a closer
// insert, and refill-via-requery on a member delete.
func TestKNNIncremental(t *testing.T) {
	// The "engine": an evolving point list the Requery answers from.
	var store []geom.Point
	center := geom.Pt(0.5, 0.5)
	requery := func(c geom.Point, k int) []geom.Point {
		out := append([]geom.Point(nil), store...)
		sort.Slice(out, func(i, j int) bool { return c.Dist(out[i]) < c.Dist(out[j]) })
		if len(out) > k {
			out = out[:k]
		}
		return out
	}

	store = []geom.Point{geom.Pt(0.51, 0.5), geom.Pt(0.55, 0.5), geom.Pt(0.6, 0.5), geom.Pt(0.9, 0.9)}
	r := NewRegistry(requery)
	defer r.Close()
	sink := newDrainSink()
	if err := r.Subscribe(1, Spec{ID: 1, Kind: KindKNN, Center: center, K: 3}, sink); err != nil {
		t.Fatal(err)
	}
	// Subscribe seeds members from Requery without notifying.
	if n := len(sink.collected()); n != 0 {
		t.Fatalf("subscribe emitted %d notifications", n)
	}

	next := func(what string) Notification {
		t.Helper()
		select {
		case n := <-sink.C:
			return n
		case <-time.After(5 * time.Second):
			t.Fatalf("no notification for %s", what)
			return Notification{}
		}
	}

	// A closer insert displaces the farthest member (0.6, 0.5).
	in := geom.Pt(0.52, 0.5)
	store = append(store, in)
	r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: in})
	if n := next("displacement delete"); n.Kind != shard.WriteDelete || n.P != geom.Pt(0.6, 0.5) {
		t.Fatalf("displacement = %+v, want delete of (0.6,0.5)", n)
	}
	if n := next("admit insert"); n.Kind != shard.WriteInsert || n.P != in {
		t.Fatalf("admit = %+v, want insert of %v", n, in)
	}

	// A far insert is outside the radius: no notification.
	far := geom.Pt(0.95, 0.95)
	store = append(store, far)
	r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: far})

	// Deleting a member notifies the delete and refills from the engine:
	// (0.6,0.5) is the nearest non-member again.
	out := geom.Pt(0.55, 0.5)
	store = []geom.Point{geom.Pt(0.51, 0.5), geom.Pt(0.52, 0.5), geom.Pt(0.6, 0.5), far}
	r.Offer(shard.WriteOp{Kind: shard.WriteDelete, P: out})
	if n := next("member delete"); n.Kind != shard.WriteDelete || n.P != out {
		t.Fatalf("member delete = %+v, want delete of %v", n, out)
	}
	if n := next("refill insert"); n.Kind != shard.WriteInsert || n.P != geom.Pt(0.6, 0.5) {
		t.Fatalf("refill = %+v, want insert of (0.6,0.5)", n)
	}
	if extra := sink.collected(); len(extra) != 0 {
		t.Fatalf("unexpected extra notifications: %+v", extra)
	}
}

// TestSlowConsumerDropAndMark pins the back-pressure contract: a full
// sink never blocks the dispatcher; refused notifications are dropped
// and the next delivered one carries Missed.
func TestSlowConsumerDropAndMark(t *testing.T) {
	r := NewRegistry(nil)
	defer r.Close()
	sink := ChanSink{C: make(chan Notification, 1)}
	win := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if err := r.Subscribe(1, Spec{ID: 1, Kind: KindWindow, Window: win}, sink); err != nil {
		t.Fatal(err)
	}

	// Three matching writes against a capacity-1 sink: one delivered,
	// two dropped. Offer must return immediately regardless.
	for i := 0; i < 3; i++ {
		start := time.Now()
		r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: geom.Pt(0.5, 0.5+float64(i)/100)})
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Offer blocked for %v against a stalled sink", d)
		}
	}
	waitFor(t, "3 events processed", func() bool {
		c := r.Counters()
		return c.Notified+c.Dropped == 3
	})
	if c := r.Counters(); c.Notified != 1 || c.Dropped != 2 {
		t.Fatalf("counters %+v, want notified=1 dropped=2", c)
	}

	first := <-sink.C
	if first.Missed {
		t.Fatalf("first delivered notification already marked missed: %+v", first)
	}
	// The consumer caught up: the next delivered notification must carry
	// the missed mark for the two dropped ones.
	r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: geom.Pt(0.6, 0.6)})
	select {
	case n := <-sink.C:
		if !n.Missed {
			t.Fatalf("post-drop notification not marked missed: %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification after draining")
	}
}

// TestSubscribeValidation covers the registration error surface.
func TestSubscribeValidation(t *testing.T) {
	r := NewRegistry(nil)
	defer r.Close()
	sink := newDrainSink()

	if err := r.Subscribe(1, Spec{ID: 1, Kind: KindWindow,
		Window: geom.Rect{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}}, sink); err == nil {
		t.Fatal("inverted window accepted")
	}
	if err := r.Subscribe(1, Spec{ID: 1, Kind: KindKNN, K: 0}, sink); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := r.Subscribe(1, Spec{ID: 1, Kind: KindKNN, K: 1 << 30}, sink); err == nil {
		t.Fatal("absurd k accepted")
	}
	if err := r.Subscribe(1, Spec{ID: 1, Kind: Kind(99)}, sink); err == nil {
		t.Fatal("unknown kind accepted")
	}
	ok := Spec{ID: 1, Kind: KindWindow, Window: geom.Rect{MaxX: 1, MaxY: 1}}
	if err := r.Subscribe(1, ok, sink); err != nil {
		t.Fatalf("valid window rejected: %v", err)
	}
	if err := r.Subscribe(1, ok, sink); err == nil {
		t.Fatal("duplicate id on the same connection accepted")
	}
	// The same id on another connection is fine.
	if err := r.Subscribe(2, ok, sink); err != nil {
		t.Fatalf("same id on other connection rejected: %v", err)
	}
}

// TestUnsubscribeAndDropConn pins removal bookkeeping: unsubscribed
// and dropped connections stop matching, and the counters balance.
func TestUnsubscribeAndDropConn(t *testing.T) {
	r := NewRegistry(nil)
	defer r.Close()
	sink := newDrainSink()
	win := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	for conn := uint64(1); conn <= 2; conn++ {
		for id := uint64(1); id <= 3; id++ {
			if err := r.Subscribe(conn, Spec{ID: id, Kind: KindWindow, Window: win}, sink); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c := r.Counters(); c.Active != 6 || c.Subscribed != 6 {
		t.Fatalf("after subscribe: %+v", c)
	}
	if !r.Unsubscribe(1, 2) {
		t.Fatal("live unsubscribe reported false")
	}
	if r.Unsubscribe(1, 2) {
		t.Fatal("dead unsubscribe reported true")
	}
	r.DropConn(2)
	if c := r.Counters(); c.Active != 2 || c.Unsubscribed != 4 {
		t.Fatalf("after removals: %+v", c)
	}

	// Only connection 1's two remaining subscriptions still match.
	r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: geom.Pt(0.5, 0.5)})
	waitFor(t, "notifications", func() bool { return r.Counters().Notified >= 2 })
	time.Sleep(10 * time.Millisecond)
	if got := len(sink.collected()); got != 2 {
		t.Fatalf("%d notifications after removals, want 2", got)
	}
}

// TestManySubscribersSublinear sanity-checks the grid: with thousands
// of small disjoint windows, a write matches only its cell's
// subscriptions, and the whole stream is matched correctly.
func TestManySubscribersSublinear(t *testing.T) {
	r := NewRegistry(nil)
	defer r.Close()

	// A 50×50 grid of disjoint windows, one subscription each.
	const side = 50
	sinks := make(map[uint64]*drainSink, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			id := uint64(i*side + j + 1)
			s := newDrainSinkN(64)
			sinks[id] = s
			win := geom.Rect{
				MinX: float64(i) / side, MinY: float64(j) / side,
				MaxX: (float64(i) + 0.999) / side, MaxY: (float64(j) + 0.999) / side,
			}
			if err := r.Subscribe(id, Spec{ID: id, Kind: KindWindow, Window: win}, s); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	want := make(map[uint64]int)
	const writes = 2000
	for i := 0; i < writes; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: p})
		ci, cj := int(p.X*side), int(p.Y*side)
		id := uint64(ci*side + cj + 1)
		win := geom.Rect{
			MinX: float64(ci) / side, MinY: float64(cj) / side,
			MaxX: (float64(ci) + 0.999) / side, MaxY: (float64(cj) + 0.999) / side,
		}
		if win.Contains(p) {
			want[id]++
		}
	}
	waitFor(t, "all writes matched", func() bool {
		var total int
		for _, n := range want {
			total += n
		}
		return r.Counters().Notified == int64(total)
	})
	for id, n := range want {
		if got := len(sinks[id].collected()); got != n {
			t.Fatalf("subscriber %d got %d notifications, want %d", id, got, n)
		}
	}
}

// TestOfferAfterClose and zero-subscription Offer are cheap no-ops.
func TestOfferIdle(t *testing.T) {
	r := NewRegistry(nil)
	// No subscriptions: Offer is a single atomic load.
	for i := 0; i < 1000; i++ {
		r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: geom.Pt(0.1, 0.1)})
	}
	r.Close()
	// After Close: still safe.
	r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: geom.Pt(0.1, 0.1)})
	if c := r.Counters(); c.Notified != 0 {
		t.Fatalf("idle offers notified: %+v", c)
	}
}

func BenchmarkOfferNoSubscribers(b *testing.B) {
	r := NewRegistry(nil)
	defer r.Close()
	op := shard.WriteOp{Kind: shard.WriteInsert, P: geom.Pt(0.5, 0.5)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Offer(op)
	}
}

func BenchmarkMatch1000Subscribers(b *testing.B) {
	r := NewRegistry(nil)
	defer r.Close()
	sink := newDrainSink()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		c := geom.Pt(rng.Float64(), rng.Float64())
		win := geom.Rect{MinX: c.X - 0.005, MinY: c.Y - 0.005, MaxX: c.X + 0.005, MaxY: c.Y + 0.005}
		if err := r.Subscribe(uint64(i), Spec{ID: uint64(i), Kind: KindWindow, Window: win}, sink); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Offer(shard.WriteOp{Kind: shard.WriteInsert, P: geom.Pt(rng.Float64(), rng.Float64())})
	}
	b.StopTimer()
	// Keep the drain sink from filling (1<<16 buffer) on long runs.
	_ = sink.collected()
	_ = fmt.Sprint(b.N)
}
