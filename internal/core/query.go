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

// blockCursor walks base blocks `begin` through `end` inclusive by index
// and, after each, the overflow chain hung off it, yielding block ids in list
// order. A base block without a chain — chainHead says so — is yielded
// without its header being loaded, so a query loop can test blockMBR[id]
// first and load only the blocks it admits. Query loops drive the cursor
// directly (no callback per block) and report the blocks it yielded with one
// CountReads when they are done.
type blockCursor struct {
	t     *RSMI
	base  int // base block whose chain the last yielded block belongs to
	end   int // last base block of the range
	chain int // next block of base's overflow chain, NilBlock when it is done
	reads int // blocks yielded so far: the walk's block accesses
}

// scan returns a cursor over base blocks [begin, end] and their chains.
func (t *RSMI) scan(begin, end int) blockCursor {
	if begin < 0 {
		begin, end = 0, -1
	}
	return blockCursor{t: t, base: begin - 1, end: min(end, t.baseBlocks-1), chain: store.NilBlock}
}

// next yields the next block id of the walk, or NilBlock when the range is
// done.
func (c *blockCursor) next() int {
	id := c.chain
	if id == store.NilBlock {
		if c.base >= c.end {
			return store.NilBlock
		}
		c.base++
		id = c.base
		c.chain = int(c.t.chainHead[id])
	} else if c.chain = c.t.store.Peek(id).Next; c.chain < c.t.baseBlocks {
		// The chain ran into the next base block or the end of the list.
		c.chain = store.NilBlock
	}
	c.reads++
	return id
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
	for id := c.next(); id != store.NilBlock; id = c.next() {
		if !t.blockMBR[id].Contains(q) {
			continue
		}
		in := t.store.Peek(id)
		if slot = in.Find(q); slot >= 0 {
			b = in
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
	dst, _ = t.collect(dst, &c, q)
	t.store.CountReads(c.reads)
	return dst
}

// collect appends to dst the points of q held by the blocks c has yet to
// yield. A block whose cached MBR misses the window is skipped without being
// loaded; the second result is the number of blocks that were not.
func (t *RSMI) collect(dst []geom.Point, c *blockCursor, q geom.Rect) ([]geom.Point, int) {
	admitted := 0
	for id := c.next(); id != store.NilBlock; id = c.next() {
		if !t.blockMBR[id].Intersects(q) {
			continue
		}
		admitted++
		for _, p := range t.store.Peek(id).Slots() {
			if q.Contains(p) {
				dst = append(dst, p)
			}
		}
	}
	return dst, admitted
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
	best := &s.best

	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		wq := geom.RectAround(q, width, height)
		if begin, end, ok := t.windowBounds(wq); ok {
			c := t.scan(begin, end)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				if !s.seen.testAndSet(id) {
					s.queue.push(blockDist{t.blockMBR[id].MinDist2(q), id})
				}
			}
			t.store.CountReads(c.reads)
			for len(s.queue) > 0 {
				next := s.queue.pop()
				if best.full() && next.dist2 >= best.worst() {
					s.queue = s.queue[:0]
					break
				}
				best.merge(t.store.Peek(next.id).Slots())
			}
		}
		if !best.full() {
			width *= 2
			height *= 2
			continue
		}
		kth := math.Sqrt(best.worst())
		if kth > math.Sqrt(width*width+height*height)/2 {
			width = 2 * kth
			height = 2 * kth
			continue
		}
		break
	}
	out := best.points()
	knnScratchPool.Put(s)
	return out
}

// candidate is a point with its squared distance to the query point.
type candidate struct {
	dist2 float64
	p     geom.Point
}

// knnBest holds the k nearest points seen so far in ascending-distance
// order, exact after every merged block. Nothing is sifted per point: a
// block's points are filtered against the k-th distance, the few that pass
// are insertion-sorted into a block-local list, and that list is merged into
// the sorted one — O(c·min(c, k) + k) for a block with c passing points.
// Equidistant points keep the order they were seen in, and the earlier one
// wins the last place.
type knnBest struct {
	q     geom.Point
	k     int
	list  []candidate // ascending by dist2, at most k
	local []candidate // one block's candidates, reused across blocks
}

// full reports whether k candidates are held. Until then every point is one,
// even at a distance that overflowed to +Inf.
func (b *knnBest) full() bool { return len(b.list) == b.k }

// worst returns the squared distance of the k-th candidate of a full list:
// what a point, or a block's MINDIST, has to beat.
func (b *knnBest) worst() float64 { return b.list[b.k-1].dist2 }

// merge folds one block's points into the list.
func (b *knnBest) merge(pts []geom.Point) {
	bound, open, local := math.Inf(1), b.k-len(b.list), b.local[:0]
	if open == 0 {
		bound = b.worst()
	}
	for _, p := range pts {
		d := b.q.Dist2(p)
		if d >= bound && len(local) >= open {
			continue
		}
		// A full local list drops its last entry, the new bound's loser.
		if len(local) < b.k {
			local = append(local, candidate{})
		}
		i := len(local) - 1
		for ; i > 0 && local[i-1].dist2 > d; i-- {
			local[i] = local[i-1]
		}
		local[i] = candidate{d, p}
		if len(local) == b.k {
			bound = local[b.k-1].dist2
		}
	}
	b.local = local
	// Drop what no longer fits from the two tails, then merge from the back,
	// in place: the list's unmoved prefix is already where it belongs.
	i, j := len(b.list), len(local)
	for i+j > b.k { // neither list is longer than k, so neither runs out
		if b.list[i-1].dist2 > local[j-1].dist2 {
			i--
		} else {
			j--
		}
	}
	b.list = append(b.list[:i], local[:j]...)
	for w := i + j - 1; j > 0; w-- {
		if i > 0 && b.list[i-1].dist2 > local[j-1].dist2 {
			i--
			b.list[w] = b.list[i]
		} else {
			j--
			b.list[w] = local[j]
		}
	}
}

// points returns the candidates' points, nearest first, as a new slice.
func (b *knnBest) points() []geom.Point {
	out := make([]geom.Point, len(b.list))
	for i, c := range b.list {
		out[i] = c.p
	}
	return out
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

// knnScratch is the per-call working state of KNN — candidate lists, block
// queue, seen-block bitmap — recycled through knnScratchPool so a query
// allocates only its answer. The index itself holds no query state: shards
// run many KNN calls on one RSMI under a read lock.
type knnScratch struct {
	best  knnBest
	queue blockQueue
	seen  bitmap
}

var knnScratchPool = sync.Pool{New: func() any { return new(knnScratch) }}

// reset prepares the scratch for a k-nearest search around q over an index
// of the given block count.
func (s *knnScratch) reset(k int, q geom.Point, blocks int) {
	s.best = knnBest{q: q, k: k, list: s.best.list[:0], local: s.best.local}
	s.queue = s.queue[:0]
	words := (blocks + 63) / 64
	if cap(s.seen) < words {
		s.seen = make(bitmap, words)
		return
	}
	s.seen = s.seen[:words]
	clear(s.seen)
}
