// Package sub implements standing queries: geo pub/sub subscriptions
// evaluated incrementally on the write path. A Registry holds window
// and kNN subscriptions and taps the index's write hooks
// (internal/shard, AddWriteHook): every applied Insert/Delete is
// matched against the registered subscriptions and the matches are
// handed to per-subscriber Sinks, which the serving layer fans out as
// server-initiated push frames over the rsmistream transport.
//
// Two properties shape the design:
//
//   - The write path must never stall. The hook body only appends the
//     event to an in-memory queue under a private mutex and signals the
//     dispatcher — the same cost class as the replication oplog append
//     that runs under the same shard lock. All matching happens on the
//     Registry's own dispatcher goroutine, outside every shard lock.
//     Slow subscribers are handled at the Sink: Send must not block,
//     and a refused notification is dropped and the subscription marked
//     (the next delivered notification carries Missed=true so the
//     subscriber knows to re-query).
//
//   - Matching must be sublinear in the subscriber count. Subscription
//     rectangles are indexed in a rank-space grid over the data
//     universe whose cells are keyed by the same space-filling curve
//     family the shards use (internal/sfc): a window subscription is
//     registered in every grid cell its rectangle overlaps, and a
//     write probes exactly the one cell containing its point, so the
//     per-write cost is proportional to the subscriptions near the
//     point, not to all of them.
//
// Window subscriptions are exact: a subscriber observes precisely the
// inserts and (found) deletes of points inside its rectangle, in apply
// order per point — re-running the window query before and after any
// write explains each notification. kNN subscriptions maintain the
// current k-nearest member set incrementally: an insert closer than the
// current k-th neighbour enters the set (notifying the insert and the
// evicted member), and a delete of a member triggers a refill re-query
// against the engine (the Requery handed to NewRegistry) whose newly
// admitted points are notified as inserts. kNN membership is therefore
// best-effort during concurrent write storms — the member set converges to
// the true k nearest once writes quiesce.
package sub

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/sfc"
	"rsmi/internal/shard"
)

// Kind discriminates subscription shapes.
type Kind uint8

const (
	// KindWindow notifies on writes inside a fixed rectangle.
	KindWindow Kind = 1
	// KindKNN notifies on changes to the k nearest neighbours of a
	// fixed centre point.
	KindKNN Kind = 2
)

// Spec describes one subscription. ID is chosen by the subscriber and
// scoped to its connection; Window is used by KindWindow, Center/K by
// KindKNN.
type Spec struct {
	ID     uint64
	Kind   Kind
	Window geom.Rect
	Center geom.Point
	K      int
}

// Notification is one matched event: point P was inserted into (or
// deleted from) the scope of subscription SubID. Missed reports that
// one or more earlier notifications for this subscription were dropped
// at a full outbox since the last delivered one — the subscriber should
// re-run its query to resynchronise. Enqueued is when the matcher
// observed the write (for latency accounting; it does not go on the
// wire).
type Notification struct {
	SubID    uint64
	Kind     shard.WriteKind
	P        geom.Point
	Missed   bool
	Enqueued time.Time
}

// Sink receives one subscriber connection's notifications. Send must
// never block: it reports false when the notification was refused
// (outbox full), in which case the Registry drops it and marks the
// subscription. Send may be called concurrently with Subscribe and
// Unsubscribe, and may keep being called briefly after Unsubscribe
// returns.
type Sink interface {
	Send(n Notification) bool
}

// ChanSink is the standard bounded Sink: a non-blocking send into C.
type ChanSink struct{ C chan Notification }

// Send implements Sink with a non-blocking channel send.
func (s ChanSink) Send(n Notification) bool {
	select {
	case s.C <- n:
		return true
	default:
		return false
	}
}

// Requery answers the current k nearest neighbours of center — wired to
// the serving engine — used to refill a kNN subscription's member set
// after a member is deleted. It runs on the dispatcher goroutine,
// outside every shard write lock. A nil Requery disables kNN refill
// (deleted members are just dropped from the set).
type Requery func(center geom.Point, k int) []geom.Point

// The matcher's grid: gridOrder bits per axis (a 64×64 grid) over the unit
// square, the data space of every generated and loaded data set, with cells
// keyed by the Hilbert curve, the RSMI default. Points and windows outside
// the unit square are clamped to the border cells, so out-of-universe
// activity still matches correctly, just without grid selectivity.
const (
	gridOrder = 6
	gridSide  = 1 << gridOrder
	// maxKNNK bounds a kNN subscription's K.
	maxKNNK = 1024
)

// Counters is a snapshot of the Registry's lifetime tallies.
type Counters struct {
	// Active is the current subscription count.
	Active int64
	// Subscribed / Unsubscribed count lifetime registrations and
	// removals (connection teardown included).
	Subscribed   int64
	Unsubscribed int64
	// Notified counts notifications accepted by a Sink; Dropped counts
	// notifications refused by a full Sink (drop-and-mark).
	Notified int64
	Dropped  int64
}

// subscription is the Registry's internal record. Mutable fields are
// guarded by Registry.mu.
type subscription struct {
	connID uint64
	spec   Spec
	sink   Sink
	// missed is set when a Send was refused; the next delivered
	// notification carries it so the subscriber knows to re-query.
	missed bool
	// cells lists the grid cells this subscription is registered in
	// (nil when on the unbounded list).
	cells []uint64
	// kNN state: the current member multiset (the index may hold
	// duplicate points) and the distance to the k-th nearest member —
	// +Inf until K members are known.
	members map[geom.Point]int
	nMember int
	radius  float64
}

// event is one write observed by the hook, stamped for latency
// accounting.
type event struct {
	op shard.WriteOp
	at time.Time
}

// Registry holds the live subscriptions and runs the incremental
// matcher. Create with NewRegistry, feed writes through Offer (usually
// via shard.AddWriteHook), and stop with Close.
type Registry struct {
	requery Requery
	curve   sfc.Curve

	// mu guards the subscription structures (cells, unbounded, conns)
	// and every subscription's mutable state.
	mu        sync.Mutex
	cells     map[uint64][]*subscription
	unbounded []*subscription // kNN subs with unknown (infinite) radius
	conns     map[uint64]map[uint64]*subscription

	// qmu guards the event queue; the hook body takes only this lock.
	qmu     sync.Mutex
	queue   []event
	stopped bool
	signal  chan struct{}
	done    chan struct{}

	active       atomic.Int64
	subscribed   atomic.Int64
	unsubscribed atomic.Int64
	notified     atomic.Int64
	dropped      atomic.Int64
}

// NewRegistry builds a Registry and starts its dispatcher goroutine.
// requery refills kNN member sets after deletes (may be nil).
func NewRegistry(requery Requery) *Registry {
	r := &Registry{
		requery: requery,
		curve:   sfc.New(sfc.Hilbert, gridOrder),
		cells:   make(map[uint64][]*subscription),
		conns:   make(map[uint64]map[uint64]*subscription),
		signal:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go r.run()
	return r
}

// Offer enqueues one observed write for matching. It is the write-hook
// body: callers typically hold a shard write lock, so Offer only
// appends under a private mutex and signals the dispatcher — it never
// matches, allocates sinks, or blocks on subscribers. With no active
// subscriptions it is a single atomic load.
func (r *Registry) Offer(op shard.WriteOp) {
	if r.active.Load() == 0 {
		return
	}
	r.qmu.Lock()
	if r.stopped {
		r.qmu.Unlock()
		return
	}
	r.queue = append(r.queue, event{op: op, at: time.Now()})
	r.qmu.Unlock()
	select {
	case r.signal <- struct{}{}:
	default:
	}
}

// Subscribe registers spec for connID, delivering matches to sink. The
// subscription observes writes applied after Subscribe returns (writes
// racing with registration may or may not match). IDs are scoped per
// connection; re-using a live ID is an error.
func (r *Registry) Subscribe(connID uint64, spec Spec, sink Sink) error {
	switch spec.Kind {
	case KindWindow:
		if spec.Window.MinX > spec.Window.MaxX || spec.Window.MinY > spec.Window.MaxY {
			return errors.New("sub: inverted window")
		}
	case KindKNN:
		if spec.K <= 0 || spec.K > maxKNNK {
			return fmt.Errorf("sub: k %d out of range [1, %d]", spec.K, maxKNNK)
		}
	default:
		return fmt.Errorf("sub: unknown subscription kind %d", spec.Kind)
	}
	s := &subscription{connID: connID, spec: spec, sink: sink}
	if spec.Kind == KindKNN {
		s.members = make(map[geom.Point]int)
		s.radius = math.Inf(1)
		// Seed the member set from the current index so the subscriber's
		// baseline query and our incremental view start aligned.
		if r.requery != nil {
			for _, p := range r.requery(spec.Center, spec.K) {
				s.members[p]++
				s.nMember++
			}
			s.radius = memberRadius(s, spec)
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	byID := r.conns[connID]
	if byID == nil {
		byID = make(map[uint64]*subscription)
		r.conns[connID] = byID
	}
	if _, dup := byID[spec.ID]; dup {
		return fmt.Errorf("sub: subscription id %d already active on this connection", spec.ID)
	}
	byID[spec.ID] = s
	r.place(s)
	r.subscribed.Add(1)
	r.active.Add(1)
	return nil
}

// Unsubscribe removes one subscription, reporting whether it was live.
func (r *Registry) Unsubscribe(connID, subID uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	byID := r.conns[connID]
	s, ok := byID[subID]
	if !ok {
		return false
	}
	delete(byID, subID)
	if len(byID) == 0 {
		delete(r.conns, connID)
	}
	r.displace(s)
	r.unsubscribed.Add(1)
	r.active.Add(-1)
	return true
}

// DropConn removes every subscription of a departed connection.
func (r *Registry) DropConn(connID uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byID := r.conns[connID]
	if len(byID) == 0 {
		delete(r.conns, connID)
		return
	}
	for _, s := range byID {
		r.displace(s)
	}
	n := int64(len(byID))
	delete(r.conns, connID)
	r.unsubscribed.Add(n)
	r.active.Add(-n)
}

// Counters snapshots the lifetime tallies.
func (r *Registry) Counters() Counters {
	return Counters{
		Active:       r.active.Load(),
		Subscribed:   r.subscribed.Load(),
		Unsubscribed: r.unsubscribed.Load(),
		Notified:     r.notified.Load(),
		Dropped:      r.dropped.Load(),
	}
}

// Close stops the dispatcher after draining already-offered events.
// Offer becomes a no-op; Close blocks until the drain completes.
func (r *Registry) Close() {
	r.qmu.Lock()
	if r.stopped {
		r.qmu.Unlock()
		<-r.done
		return
	}
	r.stopped = true
	r.qmu.Unlock()
	select {
	case r.signal <- struct{}{}:
	default:
	}
	<-r.done
}

// run is the dispatcher: it drains the event queue in batches and
// matches each event outside every shard lock.
func (r *Registry) run() {
	for {
		r.qmu.Lock()
		batch := r.queue
		r.queue = nil
		stopped := r.stopped
		r.qmu.Unlock()
		for _, ev := range batch {
			r.match(ev)
		}
		if len(batch) > 0 {
			continue // re-check the queue before sleeping
		}
		if stopped {
			close(r.done)
			return
		}
		<-r.signal
	}
}

// match tests one event against the subscriptions near its point.
func (r *Registry) match(ev event) {
	if ev.op.Kind == shard.WriteRebuild {
		// A rebuild retrains the index without changing membership of
		// any window or kNN scope: nothing to notify.
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := r.cellKey(ev.op.P)
	// Iterate over a snapshot: kNN handling may re-grid the
	// subscription and mutate the cell's slice under us.
	subs := r.cells[key]
	if len(subs) > 0 {
		snap := make([]*subscription, len(subs))
		copy(snap, subs)
		for _, s := range snap {
			r.matchOne(s, ev)
		}
	}
	if len(r.unbounded) > 0 {
		snap := make([]*subscription, len(r.unbounded))
		copy(snap, r.unbounded)
		for _, s := range snap {
			r.matchOne(s, ev)
		}
	}
}

// matchOne applies one event to one subscription. Callers hold r.mu.
func (r *Registry) matchOne(s *subscription, ev event) {
	switch s.spec.Kind {
	case KindWindow:
		if s.spec.Window.Contains(ev.op.P) {
			r.emit(s, ev.op.Kind, ev.op.P, ev.at)
		}
	case KindKNN:
		r.matchKNN(s, ev)
	}
}

// matchKNN maintains one kNN subscription's member set. Callers hold
// r.mu.
func (r *Registry) matchKNN(s *subscription, ev event) {
	d := s.spec.Center.Dist(ev.op.P)
	switch ev.op.Kind {
	case shard.WriteInsert:
		if s.nMember < s.spec.K {
			s.members[ev.op.P]++
			s.nMember++
			s.radius = memberRadius(s, s.spec)
			r.regrid(s)
			r.emit(s, shard.WriteInsert, ev.op.P, ev.at)
			return
		}
		if d >= s.radius {
			return
		}
		// The new point displaces the current farthest member.
		if out, ok := farthestMember(s); ok {
			removeMember(s, out)
			r.emit(s, shard.WriteDelete, out, ev.at)
		}
		s.members[ev.op.P]++
		s.nMember++
		s.radius = memberRadius(s, s.spec)
		r.regrid(s)
		r.emit(s, shard.WriteInsert, ev.op.P, ev.at)
	case shard.WriteDelete:
		if s.members[ev.op.P] == 0 {
			return
		}
		removeMember(s, ev.op.P)
		r.emit(s, shard.WriteDelete, ev.op.P, ev.at)
		if r.requery != nil {
			// Refill from the engine: whatever is newly in the k nearest
			// is notified as an insert. The engine read takes shard read
			// locks only — never the write lock the hook runs under.
			for _, p := range r.requery(s.spec.Center, s.spec.K) {
				if s.members[p] > 0 {
					continue
				}
				if s.nMember >= s.spec.K {
					break
				}
				s.members[p]++
				s.nMember++
				r.emit(s, shard.WriteInsert, p, ev.at)
			}
		}
		s.radius = memberRadius(s, s.spec)
		r.regrid(s)
	}
}

// emit hands one notification to the subscription's sink, applying
// drop-and-mark semantics. Callers hold r.mu.
func (r *Registry) emit(s *subscription, kind shard.WriteKind, p geom.Point, at time.Time) {
	n := Notification{SubID: s.spec.ID, Kind: kind, P: p, Missed: s.missed, Enqueued: at}
	if s.sink.Send(n) {
		s.missed = false
		r.notified.Add(1)
	} else {
		s.missed = true
		r.dropped.Add(1)
	}
}

// place registers a subscription in the grid. Callers hold r.mu.
func (r *Registry) place(s *subscription) {
	rect, bounded := r.scope(s)
	if !bounded {
		r.unbounded = append(r.unbounded, s)
		s.cells = nil
		return
	}
	s.cells = r.cellKeys(rect)
	for _, key := range s.cells {
		r.cells[key] = append(r.cells[key], s)
	}
}

// displace removes a subscription from the grid. Callers hold r.mu.
func (r *Registry) displace(s *subscription) {
	if s.cells == nil {
		r.unbounded = removeSub(r.unbounded, s)
		return
	}
	for _, key := range s.cells {
		if rest := removeSub(r.cells[key], s); len(rest) > 0 {
			r.cells[key] = rest
		} else {
			delete(r.cells, key)
		}
	}
	s.cells = nil
}

// regrid re-registers a kNN subscription after a radius change.
// Callers hold r.mu.
func (r *Registry) regrid(s *subscription) {
	r.displace(s)
	r.place(s)
}

// scope returns the rectangle a subscription must observe, and whether
// it is bounded (a kNN subscription with fewer than K known members
// must observe everything).
func (r *Registry) scope(s *subscription) (geom.Rect, bool) {
	switch s.spec.Kind {
	case KindWindow:
		return s.spec.Window, true
	default:
		if math.IsInf(s.radius, 1) {
			return geom.Rect{}, false
		}
		c := s.spec.Center
		return geom.Rect{
			MinX: c.X - s.radius, MinY: c.Y - s.radius,
			MaxX: c.X + s.radius, MaxY: c.Y + s.radius,
		}, true
	}
}

// cellKey maps a point to its grid cell's curve key, clamping
// out-of-universe coordinates to the border cells.
func (r *Registry) cellKey(p geom.Point) uint64 {
	return r.curve.Value(cellOf(p.X), cellOf(p.Y))
}

// cellKeys returns the curve keys of every grid cell a rectangle
// overlaps.
func (r *Registry) cellKeys(rect geom.Rect) []uint64 {
	x0, x1 := cellOf(rect.MinX), cellOf(rect.MaxX)
	y0, y1 := cellOf(rect.MinY), cellOf(rect.MaxY)
	keys := make([]uint64, 0, (x1-x0+1)*(y1-y0+1))
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			keys = append(keys, r.curve.Value(x, y))
		}
	}
	return keys
}

// cellOf maps a unit-square coordinate to its clamped grid column or row.
func cellOf(v float64) uint32 {
	c := int(math.Floor(v * gridSide))
	if c < 0 {
		c = 0
	}
	if c >= gridSide {
		c = gridSide - 1
	}
	return uint32(c)
}

// memberRadius returns the distance to the farthest member when K
// members are known, else +Inf.
func memberRadius(s *subscription, spec Spec) float64 {
	if s.nMember < spec.K {
		return math.Inf(1)
	}
	max := 0.0
	for p := range s.members {
		if d := spec.Center.Dist(p); d > max {
			max = d
		}
	}
	return max
}

// farthestMember returns the member farthest from the centre.
func farthestMember(s *subscription) (geom.Point, bool) {
	var out geom.Point
	found := false
	max := -1.0
	for p := range s.members {
		if d := s.spec.Center.Dist(p); d > max {
			max, out, found = d, p, true
		}
	}
	return out, found
}

// removeMember drops one instance of p from the member multiset.
func removeMember(s *subscription, p geom.Point) {
	if s.members[p] <= 1 {
		delete(s.members, p)
	} else {
		s.members[p]--
	}
	s.nMember--
}

// removeSub returns subs without s (order not preserved).
func removeSub(subs []*subscription, s *subscription) []*subscription {
	for i, e := range subs {
		if e == s {
			subs[i] = subs[len(subs)-1]
			return subs[:len(subs)-1]
		}
	}
	return subs
}
