package core

import (
	"math"
	"sync"

	"rsmi/internal/geom"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// locate is Algorithm 1's model part: it descends to the leaf model for q
// and returns the predicted global block id with the leaf's error bounds as
// a clamped scan range [lo, hi] over base blocks.
func (t *RSMI) locate(q geom.Point) (lo, hi int, ok bool) {
	leaf := t.descend(q)
	if leaf == nil {
		return 0, -1, false
	}
	lo, hi = leaf.scanBounds(q)
	return lo, hi, true
}

// scanBounds returns the leaf's error-bounded base-block range for q.
func (n *node) scanBounds(q geom.Point) (lo, hi int) {
	local := n.predictClamped(q)
	lo = n.firstBlock + local - n.errDown
	hi = n.firstBlock + local + n.errUp
	// The true block of any point in this leaf lies within the leaf's base
	// range, so the scan clamps to it.
	if lo < n.firstBlock {
		lo = n.firstBlock
	}
	if last := n.firstBlock + n.numBlocks - 1; hi > last {
		hi = last
	}
	return lo, hi
}

// blockCursor walks the block list from base block `begin` through base
// block `end` inclusive, yielding every base block in between and every
// inserted overflow block chained among them. Query loops drive it directly
// (no callback per block) and report the blocks it yielded with one
// CountReads when they are done.
type blockCursor struct {
	store *store.Manager
	cur   int // next block id to yield
	end   int // last base block of the range
	base  int // base block whose chain the last yielded block belongs to
	reads int // blocks yielded so far: the walk's block accesses
}

// scan returns a cursor over base blocks [begin, end] and their chains.
func (t *RSMI) scan(begin, end int) blockCursor {
	if begin > end || begin < 0 || begin >= t.baseBlocks {
		begin = store.NilBlock
	}
	return blockCursor{store: t.store, cur: begin, end: end}
}

// next yields the next block of the walk, or nil when the range is done.
func (c *blockCursor) next() *store.Block {
	if c.cur == store.NilBlock {
		return nil
	}
	b := c.store.Peek(c.cur)
	if b == nil {
		return nil
	}
	if !b.Inserted {
		if b.ID > c.end {
			return nil
		}
		c.base = b.ID
	}
	c.cur = b.Next
	c.reads++
	return b
}

// PointQuery implements Algorithm 1: descend the models, then scan the
// error-bounded block range (and any overflow chains) for a point with q's
// exact coordinates. It implements index.Index and never returns a false
// negative for indexed points.
//
// This context-free form is the implementation layer: PointQueryContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
//
//rsmi:noalloc
func (t *RSMI) PointQuery(q geom.Point) bool {
	lo, hi, ok := t.locate(q)
	if !ok {
		return false
	}
	b, _, _ := t.findPointIn(q, lo, hi)
	return b != nil
}

// findPointIn scans base blocks [lo, hi] and their chains for a live point
// equal to q, returning its block, the base block of that block's chain
// (what the window scan bounds need) and its slot; b is nil when q is not
// there. A block is searched only when its cached MBR contains q: the MBR
// covers every live point of the block, so a block it rules out cannot hold
// q, and corner probes of a window — almost never indexed points — skip
// nearly every block they walk. Skipped blocks still count as accesses.
func (t *RSMI) findPointIn(q geom.Point, lo, hi int) (b *store.Block, base, slot int) {
	c := t.scan(lo, hi)
	for b = c.next(); b != nil; b = c.next() {
		if !t.blockMBR[b.ID].Contains(q) {
			continue
		}
		if slot = b.Find(q); slot >= 0 {
			break
		}
	}
	t.store.CountReads(c.reads)
	return b, c.base, slot
}

// windowBounds computes the base-block scan range for a window query
// (Algorithm 2, lines 1–10). For Hilbert curves the extreme curve values in
// the window lie on its boundary, so the four corners are used heuristically
// (§4.2); for Z-curves the bottom-left and top-right corners are exact.
func (t *RSMI) windowBounds(q geom.Rect) (begin, end int, any bool) {
	// Two corners for Z-curves, four for Hilbert curves (§4.2).
	corners := [4]geom.Point{
		{X: q.MinX, Y: q.MinY}, {X: q.MaxX, Y: q.MaxY},
		{X: q.MinX, Y: q.MaxY}, {X: q.MaxX, Y: q.MinY},
	}
	n := len(corners)
	if t.opts.Curve == sfc.Z {
		n = 2
	}
	begin, end = math.MaxInt, -1
	for _, c := range corners[:n] {
		lo, hi, ok := t.locate(c)
		if !ok {
			continue
		}
		any = true
		// If the corner itself is indexed, its actual block is an exact
		// bound; otherwise fall back to the error-bounded range.
		if b, base, _ := t.findPointIn(c, lo, hi); b != nil {
			lo, hi = base, base
		}
		if lo < begin {
			begin = lo
		}
		if hi > end {
			end = hi
		}
	}
	return begin, end, any
}

// WindowQuery implements Algorithm 2: bound the block range with corner
// point queries, scan it, and filter by the window. The answer has no false
// positives; it may miss points whose blocks fall outside the predicted
// range (the approximate behaviour evaluated in §6.2.3, recall > 87%).
//
// This context-free form is the implementation layer: WindowQueryContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) WindowQuery(q geom.Rect) []geom.Point {
	return t.windowQueryAppend(nil, q)
}

// windowQueryAppend is WindowQuery appending into dst (which may be nil),
// the shared implementation behind WindowQuery and WindowQueryAppend. It
// allocates only when dst has to grow.
//
//rsmi:noalloc
func (t *RSMI) windowQueryAppend(dst []geom.Point, q geom.Rect) []geom.Point {
	begin, end, ok := t.windowBounds(q)
	if !ok || end < begin {
		return dst
	}
	c := t.scan(begin, end)
	for b := c.next(); b != nil; b = c.next() {
		// Skip blocks whose cached MBR misses the window without touching
		// their points (cheap filter; the block read is still counted).
		if !t.blockMBR[b.ID].Intersects(q) {
			continue
		}
		pts, deleted := b.Slots()
		for i, p := range pts {
			if !deleted[i] && q.Contains(p) {
				dst = append(dst, p)
			}
		}
	}
	t.store.CountReads(c.reads)
	return dst
}

// KNN implements Algorithm 3: an expanding search region sized by the
// learned per-dimension CDFs, probed with window queries. Results are
// approximate (recall > 88% in §6.2.4) and sorted by distance.
//
// Within a round the region's blocks are searched best-first: every block
// the round has not seen yet is queued by the MINDIST of its cached MBR, the
// nearest is searched next, and the round stops at the first block no nearer
// than the current k-th candidate (the MINDIST test of Algorithm 3, line 7 —
// every block still queued fails it too). A block queued once is never
// reconsidered: the bound only shrinks, so a block that failed the test
// keeps failing it.
//
// This context-free form is the implementation layer: KNNContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) KNN(q geom.Point, k int) []geom.Point {
	if k <= 0 || t.n == 0 || !q.IsFinite() {
		// Nothing is nearest to a point that is nowhere.
		return nil
	}
	if k > t.n {
		k = t.n
	}
	// Initial region: a k/n-fraction rectangle scaled by the skew
	// parameters αx, αy (Eq. 6).
	frac := math.Sqrt(float64(k) / float64(t.n))
	width := t.pmfX.Alpha(q.X, t.opts.Delta) * frac
	height := t.pmfY.Alpha(q.Y, t.opts.Delta) * frac

	s := knnScratchPool.Get().(*knnScratch)
	s.reset(k, q, t.store.NumBlocks())
	pq := &s.best

	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		wq := geom.RectAround(q, width, height)
		if begin, end, ok := t.windowBounds(wq); ok {
			c := t.scan(begin, end)
			for b := c.next(); b != nil; b = c.next() {
				if !s.seen.testAndSet(b.ID) {
					s.queue.push(blockDist{t.blockMBR[b.ID].MinDist2(q), b.ID})
				}
			}
			t.store.CountReads(c.reads)
			for len(s.queue) > 0 {
				next := s.queue.pop()
				if pq.Len() >= k && next.dist2 >= pq.worst() {
					s.queue = s.queue[:0]
					break
				}
				pts, deleted := t.store.Peek(next.id).Slots()
				for i, p := range pts {
					if !deleted[i] {
						pq.offer(p)
					}
				}
			}
		}
		if pq.Len() < k {
			width *= 2
			height *= 2
			continue
		}
		kth := math.Sqrt(pq.worst())
		if kth > math.Sqrt(width*width+height*height)/2 {
			width = 2 * kth
			height = 2 * kth
			continue
		}
		break
	}
	out := pq.sorted()
	knnScratchPool.Put(s)
	return out
}

// knnHeap is a bounded max-heap of the k best candidates by distance to q.
type knnHeap struct {
	q    geom.Point
	k    int
	dist []float64 // squared distances, max-heap order
	pts  []geom.Point
}

func (h *knnHeap) Len() int { return len(h.pts) }

// worst returns the squared distance of the current k-th candidate.
func (h *knnHeap) worst() float64 {
	if len(h.dist) == 0 {
		return math.Inf(1)
	}
	return h.dist[0]
}

// offer adds p if it improves the k best.
func (h *knnHeap) offer(p geom.Point) {
	d := h.q.Dist2(p)
	if len(h.pts) < h.k {
		h.pts = append(h.pts, p)
		h.dist = append(h.dist, d)
		h.up(len(h.dist) - 1)
		return
	}
	if d >= h.dist[0] {
		return
	}
	// Replace the top and sift it down: one pass instead of a pop and a push.
	h.pts[0], h.dist[0] = p, d
	h.down(len(h.dist))
}

// up restores heap order after slot i was appended.
func (h *knnHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.dist[parent] >= h.dist[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down restores heap order among the first n slots after slot 0 changed.
func (h *knnHeap) down(n int) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.dist[l] > h.dist[big] {
			big = l
		}
		if r < n && h.dist[r] > h.dist[big] {
			big = r
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}

func (h *knnHeap) swap(i, j int) {
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
	h.pts[i], h.pts[j] = h.pts[j], h.pts[i]
}

// sorted returns the candidates in ascending-distance order as a new slice,
// leaving the heap's own storage (sorted in place, heap-sort style) reusable.
func (h *knnHeap) sorted() []geom.Point {
	for n := len(h.pts) - 1; n > 0; n-- {
		h.swap(0, n)
		h.down(n)
	}
	return append([]geom.Point(nil), h.pts...)
}

// blockDist is a block queued for a kNN round with the squared MINDIST from
// the query point to its cached MBR.
type blockDist struct {
	dist2 float64
	id    int
}

// blockQueue is a binary min-heap of blocks by MINDIST.
type blockQueue []blockDist

func (q *blockQueue) push(e blockDist) {
	h := append(*q, e)
	*q = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].dist2 <= h[i].dist2 {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *blockQueue) pop() blockDist {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].dist2 < h[small].dist2 {
			small = l
		}
		if r < n && h[r].dist2 < h[small].dist2 {
			small = r
		}
		if small == i {
			return top
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// bitmap is a set of block ids.
type bitmap []uint64

// testAndSet adds id and reports whether it was already present.
func (m bitmap) testAndSet(id int) bool {
	w, bit := id>>6, uint64(1)<<(id&63)
	old := m[w]
	m[w] = old | bit
	return old&bit != 0
}

// knnScratch is the per-call working state of KNN — candidate heap, block
// queue, seen-block bitmap — recycled through knnScratchPool so a query
// allocates only its answer. The index itself holds no query state: shards
// run many KNN calls on one RSMI under a read lock.
type knnScratch struct {
	best  knnHeap
	queue blockQueue
	seen  bitmap
}

var knnScratchPool = sync.Pool{New: func() any { return new(knnScratch) }}

// reset prepares the scratch for a k-nearest search around q over an index
// of the given block count.
func (s *knnScratch) reset(k int, q geom.Point, blocks int) {
	s.best = knnHeap{q: q, k: k, dist: s.best.dist[:0], pts: s.best.pts[:0]}
	s.queue = s.queue[:0]
	words := (blocks + 63) / 64
	if cap(s.seen) < words {
		s.seen = make(bitmap, words)
		return
	}
	s.seen = s.seen[:words]
	clear(s.seen)
}
