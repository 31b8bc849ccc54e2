package index

import (
	"math"
	"slices"
	"sync"

	"rsmi/internal/geom"
)

// Nearest is a bounded set of the k nearest points offered to it, ordered as
// SortByDistance orders them: by distance to the query point, then by the
// canonical point order. It is a sorted list of at most k candidates, exact
// after every offer. Nothing is sifted per point: an offer's points are
// filtered against the k-th candidate, the few that pass are
// insertion-sorted into an offer-local list, and that list is merged into
// the sorted one — O(c·min(c, k) + k) for an offer with c passing points.
//
// Its storage comes from a package pool and goes back to it in Points, so a
// search allocates only its answer; nothing is sized from k, which may come
// off the wire. Build one with NewNearest, for k ≥ 1.
type Nearest struct {
	q   geom.Point
	k   int
	buf *nearestBuf
}

// nearestBuf is a Nearest's storage: the sorted list and one offer's
// candidates, reused across offers.
type nearestBuf struct {
	list, local []candidate
}

// nearestBufs starts each buffer with room for 128 candidates, a constant and
// not k: a pool drops its buffers at garbage collection, and a k = 25 set
// regrown from nothing would make a dozen allocations each time.
var nearestBufs = sync.Pool{New: func() any {
	return &nearestBuf{list: make([]candidate, 0, 128), local: make([]candidate, 0, 128)}
}}

// candidate is a point with its squared distance to the kNN query.
type candidate struct {
	p  geom.Point
	d2 float64
}

// nearer orders candidates as SortByDistance does: by distance, then by
// the canonical point order.
func (c candidate) nearer(o candidate) bool {
	return c.d2 < o.d2 || (c.d2 == o.d2 && c.p.Less(o.p))
}

// NewNearest returns an empty set of the k nearest points to q.
func NewNearest(q geom.Point, k int) Nearest {
	b := nearestBufs.Get().(*nearestBuf)
	b.list = b.list[:0]
	return Nearest{q: q, k: k, buf: b}
}

// Offer folds pts into the set. Until k points are held every point is a
// candidate, even at a distance that overflowed to +Inf.
func (n *Nearest) Offer(pts ...geom.Point) {
	k, list, local := n.k, n.buf.list, n.buf.local[:0]
	var cut candidate // what a point has to be nearer than, once limited
	limited := len(list) == k
	if limited {
		cut = list[k-1]
	}
	for _, p := range pts {
		c := candidate{p, n.q.Dist2(p)}
		if limited && !c.nearer(cut) {
			continue
		}
		// A full local list drops its last entry, the new cut's loser.
		if len(local) < k {
			local = append(local, candidate{})
		}
		i := len(local) - 1
		for ; i > 0 && c.nearer(local[i-1]); i-- {
			local[i] = local[i-1]
		}
		local[i] = c
		if len(local) == k {
			cut, limited = local[k-1], true
		}
	}
	if len(list) == 0 {
		// The offer's candidates are the set: trade buffers rather than copy.
		n.buf.list, n.buf.local = local, list
		return
	}
	n.buf.local = local
	// Drop what no longer fits from the two tails, then merge from the back,
	// in place: the list's unmoved prefix is already where it belongs, and
	// what is left of local goes in front of it.
	i, j := len(list), len(local)
	for i+j > k { // neither list is longer than k, so neither runs out
		if local[j-1].nearer(list[i-1]) {
			i--
		} else {
			j--
		}
	}
	list = slices.Grow(list[:i], j)[:i+j]
	for w := i + j - 1; i > 0 && j > 0; w-- {
		if local[j-1].nearer(list[i-1]) {
			i--
			list[w] = list[i]
		} else {
			j--
			list[w] = local[j]
		}
	}
	copy(list, local[:j])
	n.buf.list = list
}

// Full reports whether k points are held.
func (n *Nearest) Full() bool { return len(n.buf.list) >= n.k }

// Bound returns the squared distance of the k-th held point once k are
// held, and +Inf until then: no point beyond it can enter the set.
func (n *Nearest) Bound() float64 {
	if !n.Full() {
		return math.Inf(1)
	}
	return n.buf.list[n.k-1].d2
}

// Query returns the point the set's distances are measured from.
func (n *Nearest) Query() geom.Point { return n.q }

// Points returns the held points, nearest first, as a new slice (nil when
// none are held). It returns the set's storage to the pool, so the set must
// not be used after it.
func (n *Nearest) Points() []geom.Point {
	var out []geom.Point
	if list := n.buf.list; len(list) > 0 {
		out = make([]geom.Point, len(list))
		for i, c := range list {
			out[i] = c.p
		}
	}
	nearestBufs.Put(n.buf)
	n.buf = nil
	return out
}

// Walk is the state of one best-first search: the k nearest points found so
// far, and the queue of entries not yet expanded, nearest first.
type Walk[N any] struct {
	Nearest
	queue []entry[N]
}

// entry is a queued node with the squared MINDIST of its region to q.
type entry[N any] struct {
	dist2 float64
	node  N
}

// Reset empties w for a search of the k nearest points to q.
func (w *Walk[N]) Reset(q geom.Point, k int) {
	w.Nearest = NewNearest(q, k)
	w.queue = w.queue[:0]
}

// Push queues n, whose region lies at squared MINDIST dist2 from the query.
func (w *Walk[N]) Push(n N, dist2 float64) {
	w.queue = append(w.queue, entry[N]{dist2, n})
	h := w.queue
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].dist2 <= h[i].dist2 {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// Drain expands queued entries, least MINDIST first, until k points are held
// and the next entry is no nearer than the k-th of them; expand either pushes
// the node's children or offers its points. The entries left then fail that
// test too, and for good — the bound only shrinks — so they are dropped: the
// queue is empty when Drain returns.
func (w *Walk[N]) Drain(expand func(w *Walk[N], n N)) { w.drain(expand, false) }

// drain is Drain; with ties set an entry exactly at the k-th distance is
// still expanded, since it may hold a point at that distance which the
// canonical point order puts first.
func (w *Walk[N]) drain(expand func(w *Walk[N], n N), ties bool) {
	for len(w.queue) > 0 {
		e := w.pop()
		if b := w.Bound(); w.Full() && (e.dist2 > b || !ties && e.dist2 == b) {
			w.queue = w.queue[:0]
			return
		}
		expand(w, e.node)
	}
}

// pop removes and returns the queued entry of least MINDIST.
func (w *Walk[N]) pop() entry[N] {
	h := w.queue
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	w.queue = h
	for i := 0; ; {
		small := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < last && h[c].dist2 < h[small].dist2 {
				small = c
			}
		}
		if small == i {
			return top
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Walks is a pool of best-first searches over nodes of type N. A package
// declares one per node type, so a search allocates only its answer.
type Walks[N any] struct {
	pool sync.Pool
}

// BestFirst answers a kNN query exactly with the best-first search of
// Roussopoulos et al. [40], and returns the k nearest points to q, nearest
// first, ties in the canonical point order. BestFirst returns nil for k ≤ 0
// or a non-finite q.
func (ws *Walks[N]) BestFirst(q geom.Point, k int, root N, expand func(w *Walk[N], n N)) []geom.Point {
	if k <= 0 || !q.IsFinite() {
		return nil
	}
	best := NewNearest(q, k)
	ws.Search(&best, root, expand)
	return best.Points()
}

// Search runs the best-first search from root, offering into best, which
// may already hold what other searches offered: a search of a second index
// starts from the first one's k-th distance. It drains the queue (see
// Drain), so a node is expanded only if its region may hold a point nearer
// than the k-th held one, or one at that distance which comes first in the
// canonical order. Nothing is searched for a non-finite query point.
func (ws *Walks[N]) Search(best *Nearest, root N, expand func(w *Walk[N], n N)) {
	if !best.q.IsFinite() {
		return
	}
	w, _ := ws.pool.Get().(*Walk[N])
	if w == nil {
		w = new(Walk[N])
	}
	// A Nearest is a handle on its pooled storage, so the walk offers
	// straight into best's.
	w.Nearest, w.queue = *best, w.queue[:0]
	w.Push(root, 0)
	w.drain(expand, true)
	w.Nearest = Nearest{}
	ws.pool.Put(w)
}
