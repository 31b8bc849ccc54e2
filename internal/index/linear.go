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

// KNN implements Index with an exact full scan that offers every point to a
// Nearest. The answer is exactly that of sorting every point with
// SortByDistance and keeping the first k (ties in canonical point order),
// in O(k) space. Nothing is nearest to a non-finite q.
//
// The points are offered in runs of 1024, as an index offers its blocks: one
// offer of everything would shift up to k candidates for every point that
// beats the k-th (2.4× slower at k = 625 over 100k points).
func (l *Linear) KNN(q geom.Point, k int) []geom.Point {
	if k <= 0 || len(l.pts) == 0 || !q.IsFinite() {
		return nil
	}
	const run = 1024
	best := NewNearest(q, k)
	for i := 0; i < len(l.pts); i += run {
		best.Offer(l.pts[i:min(i+run, len(l.pts))]...)
	}
	return best.Points()
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
