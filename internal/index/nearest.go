package index

import (
	"math"

	"rsmi/internal/geom"
)

// Nearest is a bounded set of the k nearest points offered to it, ordered as
// SortByDistance orders them: by distance to the query point, then by the
// canonical point order. It is a max-heap with the farthest held point on
// top, so an offer costs O(log k) and the set never holds more than k
// points. Build one with NewNearest.
type Nearest struct {
	q     geom.Point
	k     int
	bound float64 // heap[0].d2 once k points are held, +Inf until then
	heap  farthestFirst
}

// NewNearest returns an empty set of the k nearest points to q.
func NewNearest(q geom.Point, k int) Nearest {
	return Nearest{q: q, k: k, bound: math.Inf(1)}
}

// Offer adds each of pts that is nearer than the farthest held point, which
// it then replaces, or any of them while fewer than k points are held. The
// bound test is written so that a NaN distance still reaches add, which
// keeps it only while fewer than k points are held.
func (n *Nearest) Offer(pts ...geom.Point) {
	for _, p := range pts {
		if d2 := n.q.Dist2(p); !(d2 > n.bound) {
			n.add(candidate{p, d2})
		}
	}
}

func (n *Nearest) add(c candidate) {
	switch {
	case len(n.heap) < n.k:
		n.heap = append(n.heap, c)
		n.heap.up(len(n.heap) - 1)
	case len(n.heap) > 0 && c.nearer(n.heap[0]):
		n.heap[0] = c
		n.heap.down(0)
	default:
		return
	}
	if len(n.heap) == n.k {
		n.bound = n.heap[0].d2
	}
}

// Full reports whether k points are held.
func (n *Nearest) Full() bool { return len(n.heap) >= n.k }

// Bound returns the squared distance of the farthest held point once k are
// held, and +Inf until then: no point beyond it can enter the set.
func (n *Nearest) Bound() float64 { return n.bound }

// Points returns the held points, nearest first. It empties the heap in
// place, so the set must not be used after it.
func (n *Nearest) Points() []geom.Point {
	h := n.heap
	out := make([]geom.Point, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h[0].p
		h[0] = h[i]
		h = h[:i]
		h.down(0)
	}
	return out
}

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

// farthestFirst is a binary max-heap of candidates under nearer.
type farthestFirst []candidate

func (h farthestFirst) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[parent].nearer(h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h farthestFirst) down(i int) {
	for {
		far := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[far].nearer(h[c]) {
				far = c
			}
		}
		if far == i {
			return
		}
		h[i], h[far] = h[far], h[i]
		i = far
	}
}

// Walk is the state of one BestFirst search: the k nearest points found so
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

// BestFirst answers a kNN query exactly with the best-first search of
// Roussopoulos et al. [40], and returns the k nearest points to q, nearest
// first, ties in the canonical point order. The search starts at root and
// repeatedly expands the queued node of least MINDIST: expand either pushes
// the node's children with the squared MINDIST of their regions to q, or
// offers the node's points. It stops when k points are held and the next
// node is no nearer than the k-th of them, so a node is expanded only if
// its region may hold a nearer point. BestFirst returns nil for k ≤ 0 or a
// non-finite q.
func BestFirst[N any](q geom.Point, k int, root N, expand func(w *Walk[N], n N)) []geom.Point {
	if k <= 0 || !q.IsFinite() {
		return nil
	}
	w := &Walk[N]{Nearest: NewNearest(q, k)}
	w.Push(root, 0)
	for len(w.queue) > 0 {
		e := w.pop()
		if w.Full() && e.dist2 >= w.Bound() {
			break
		}
		expand(w, e.node)
	}
	return w.Points()
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
