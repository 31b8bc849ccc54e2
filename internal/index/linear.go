package index

import (
	"time"

	"rsmi/internal/geom"
)

// Linear is a brute-force scan index. It is the ground-truth oracle for
// recall measurements and correctness tests: every query is answered by an
// exact scan over all points.
type Linear struct {
	pts   []geom.Point
	byPos map[geom.Point]int
	built time.Duration
}

var _ Index = (*Linear)(nil)

// NewLinear builds a Linear index over the points.
func NewLinear(pts []geom.Point) *Linear {
	start := time.Now()
	l := &Linear{
		pts:   append([]geom.Point(nil), pts...),
		byPos: make(map[geom.Point]int, len(pts)),
	}
	for i, p := range l.pts {
		l.byPos[p] = i
	}
	l.built = time.Since(start)
	return l
}

// Name implements Index.
func (l *Linear) Name() string { return "Linear" }

// PointQuery implements Index.
func (l *Linear) PointQuery(q geom.Point) bool {
	_, ok := l.byPos[q]
	return ok
}

// WindowQuery implements Index with an exact full scan.
func (l *Linear) WindowQuery(q geom.Rect) []geom.Point {
	var out []geom.Point
	for _, p := range l.pts {
		if q.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// KNN implements Index with an exact full scan that keeps the k nearest
// points seen so far in a max-heap, the farthest on top, and empties the
// heap into the answer from the back. The answer is exactly that of
// sorting every point with SortByDistance and keeping the first k (ties
// in canonical point order), in O(n log k) time and O(k) space.
func (l *Linear) KNN(q geom.Point, k int) []geom.Point {
	if k <= 0 || len(l.pts) == 0 {
		return nil
	}
	h := make(farthestFirst, 0, min(k, len(l.pts)))
	for _, p := range l.pts {
		c := candidate{p, q.Dist2(p)}
		switch {
		case len(h) < k:
			h = append(h, c)
			h.up(len(h) - 1)
		case c.nearer(h[0]):
			h[0] = c
			h.down(0)
		}
	}
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

// Insert implements Index.
func (l *Linear) Insert(p geom.Point) {
	if _, ok := l.byPos[p]; ok {
		return
	}
	l.byPos[p] = len(l.pts)
	l.pts = append(l.pts, p)
}

// Delete implements Index.
func (l *Linear) Delete(p geom.Point) bool {
	i, ok := l.byPos[p]
	if !ok {
		return false
	}
	last := len(l.pts) - 1
	l.pts[i] = l.pts[last]
	l.byPos[l.pts[i]] = i
	l.pts = l.pts[:last]
	delete(l.byPos, p)
	return true
}

// Len implements Index.
func (l *Linear) Len() int { return len(l.pts) }

// Stats implements Index.
func (l *Linear) Stats() Stats {
	return Stats{
		Name:      l.Name(),
		SizeBytes: int64(len(l.pts)) * 16,
		Height:    0,
		Blocks:    0,
		BuildTime: l.built,
	}
}

// ResetAccesses implements Index; a scan index has no blocks.
func (l *Linear) ResetAccesses() {}

// Accesses implements Index.
func (l *Linear) Accesses() int64 { return 0 }
