package core

import (
	"math"
	"math/bits"
	"sync"

	"rsmi/internal/cdf"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
)

// blockCursor walks the base blocks at positions `begin` through `end`
// inclusive of a leaf's block list and, after each, the overflow chain hung
// off it, yielding block ids in that order. A base block without a chain —
// its chain head says so — is yielded without its header being loaded, so a
// query loop can test blockMBR[id] first and load only the blocks it admits.
// Query loops drive the cursor directly (no callback per block) and report
// the blocks it yielded with one CountReads when they are done.
type blockCursor struct {
	t      *RSMI
	blocks []int32 // the leaf's base blocks up to the range's last
	pos    int     // position of base in blocks
	base   int     // base block whose chain the last yielded block belongs to
	chain  int     // next block of base's overflow chain, NilBlock when it is done
	reads  int     // blocks yielded so far: the walk's block accesses
}

// scan returns a cursor over the base blocks at positions [begin, end] of
// leaf n's list and their chains.
func (t *RSMI) scan(n *node, begin, end int) blockCursor {
	c := blockCursor{t: t, pos: -1, base: store.NilBlock, chain: store.NilBlock}
	if end = min(end, len(n.blocks)-1); begin >= 0 && begin <= end {
		c.blocks, c.pos = n.blocks[:end+1], begin-1
	}
	return c
}

// next yields the next block id of the walk, or NilBlock when the range is
// done.
func (c *blockCursor) next() int {
	id := c.chain
	if id == store.NilBlock {
		if c.pos+1 >= len(c.blocks) {
			return store.NilBlock
		}
		c.pos++
		id = int(c.blocks[c.pos])
		c.base, c.chain = id, int(c.t.chainHeads[id])
	} else {
		c.chain = c.t.store.Peek(id).Next
	}
	c.reads++
	return id
}

// PointQuery implements Algorithm 1: descend the cuts to a leaf, look up
// q's cell there, and search the cell's base blocks (and their overflow
// chains) for a point with q's exact coordinates. Every point filed in the
// cell lies in them (see "Correctness guarantees"), so it never returns a
// false negative for indexed points; a present point is read, nearly
// always, from the first block, which is searched from the slot the cell's
// run starts at. It implements index.Index.
//
// This context-free form is the implementation layer: PointQueryContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
//
//rsmi:noalloc
func (t *RSMI) PointQuery(q geom.Point) bool {
	leaf := t.descend(q)
	if leaf == nil {
		return false
	}
	return t.findPoint(leaf, q) != nil
}

// findPoint scans the base blocks [lo, hi] of q's cell in leaf and their
// chains for a live point equal to q and returns its block, nil when q is
// not there. Block lo is searched from the slot the cell's run starts at,
// wrapping round, and every other block from its first slot. A block is
// searched only when its cached MBR contains q: the MBR covers every live
// point of the block, so a block it rules out cannot hold q. Skipped blocks
// still count as accesses.
func (t *RSMI) findPoint(leaf *node, q geom.Point) *store.Block {
	lo, hi, from := t.cellBlocks(leaf, t.leafCell(leaf, q))
	c := t.scan(leaf, lo, hi)
	first := int(leaf.blocks[lo])
	for id := c.next(); id != store.NilBlock; id = c.next() {
		if !t.blockMBR[id].Contains(q) {
			continue
		}
		in := t.store.Peek(id)
		if in.FindFrom(q, startSlot(id, first, from)) >= 0 {
			t.store.CountReads(c.reads)
			return in
		}
	}
	t.store.CountReads(c.reads)
	return nil
}

// startSlot is the slot a search of block id starts at when the cell's run
// starts at slot from of block first.
func startSlot(id, first, from int) int {
	if id == first {
		return from
	}
	return 0
}

// forLeaves calls fn, in leaf order, for every leaf under n whose MBR meets
// q: the walk every window query and kNN round makes, by cells or by MBRs.
// A leaf's MBR covers every point it holds, so the leaves it skips hold none
// of q's points.
func forLeaves(n *node, q geom.Rect, fn func(leaf *node)) {
	if n == nil || !n.mbr.Intersects(q) {
		return
	}
	if n.leaf {
		fn(n)
		return
	}
	for _, c := range n.children {
		forLeaves(c, q, fn)
	}
}

// cellMask returns the cells of leaf n that a point of q can lie in, as a
// set of curve values: the cells of the columns and rows between q's sides,
// counted with the cuts as leafCell counts them. A count is monotone in the
// order it compares by, so a point of q lies in a column from that of
// (MinX, −∞) to that of (MaxX, +∞), and in a row from that of (−∞, MinY) to
// that of (+∞, MaxY).
func (t *RSMI) cellMask(n *node, q geom.Rect) (mask uint64) {
	inf := math.Inf(1)
	c0, c1 := countX(n.cols, geom.Pt(q.MinX, -inf)), countX(n.cols, geom.Pt(q.MaxX, inf))
	r0, r1 := countY(n.rowCuts, geom.Pt(-inf, q.MinY)), countY(n.rowCuts, geom.Pt(inf, q.MaxY))
	grid := t.cellGrids[n.order]
	for c := c0; c <= c1; c++ {
		for r := r0; r <= r1; r++ {
			mask |= 1 << grid[c<<n.order|r]
		}
	}
	return mask
}

// nextRange takes the lowest cell of leaf n out of mask, with every next one
// whose blocks run on from it without a gap, and returns the positions
// [lo, hi] of the base blocks they cover. Cells in curve order took
// ascending runs of the leaf's positions, so successive ranges come out in
// position order and share no block.
func (t *RSMI) nextRange(n *node, mask *uint64) (lo, hi int) {
	lo, hi, _ = t.cellBlocks(n, bits.TrailingZeros64(*mask))
	for *mask &= *mask - 1; *mask != 0; *mask &= *mask - 1 {
		l, h, _ := t.cellBlocks(n, bits.TrailingZeros64(*mask))
		if l > hi+1 {
			break
		}
		hi = max(hi, h)
	}
	return lo, hi
}

// forCells calls fn, in leaf and position order, with a cursor over every
// run of base blocks (and their chains) that holds the cells of q in a leaf
// whose MBR meets q: Algorithm 2's scan range, made exact. Counting the
// cursor's reads is fn's.
func (t *RSMI) forCells(q geom.Rect, fn func(c *blockCursor)) {
	forLeaves(t.root, q, func(n *node) {
		for m := t.cellMask(n, q); m != 0; {
			lo, hi := t.nextRange(n, &m)
			c := t.scan(n, lo, hi)
			fn(&c)
		}
	})
}

// WindowQuery implements Algorithm 2 leaf by leaf: in every leaf whose MBR
// meets the window, read the blocks of the cells between the window's sides
// (forCells) and filter by the window. The paper bounds one scan range by
// the predictions of the window's corners, widened by the leaf models' error
// bounds, and may miss points (§6.2.3, recall > 87%); the cells make the
// range exact, so the answer has neither false positives nor misses.
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
	if !(q.MinX <= q.MaxX && q.MinY <= q.MaxY) {
		// An inverted window, or one with a NaN side, contains nothing.
		return dst
	}
	t.forCells(q, func(c *blockCursor) {
		dst, _ = t.collect(dst, c, q)
		t.store.CountReads(c.reads)
	})
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
// sorted by distance, equidistant points in the canonical point order; the
// paper's are approximate (recall > 88% in §6.2.4).
//
// A round's region is searched as a window query is (forCells), and its
// blocks best-first: every block the round
// has not seen yet is queued by the MINDIST of its cached MBR and the queue
// is drained (index.Walk.Drain), which stops at the first block no nearer
// than the current k-th candidate (the MINDIST test of Algorithm 3, line 7).
// A block queued once is never reconsidered: the bound only shrinks, so a
// block that failed the test keeps failing it.
//
// Algorithm 3 stops once the k-th candidate lies within half the region's
// diagonal, but the circle through it may still leave the region where the
// region is narrower than that circle. One top-up pass then covers the
// circle's bounding square: the blocks of its cells that are nearer than
// the k-th candidate are queued and drained. Only the blocks queued count as
// read.
//
// This context-free form is the implementation layer: KNNContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
//
//rsmi:noalloc
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
	width := t.pmfX.Alpha(q.X, cdf.DefaultDelta) * frac
	height := t.pmfY.Alpha(q.Y, cdf.DefaultDelta) * frac
	// A round reads only the leaves its region meets, so the region starts
	// out reaching the data: from a query far outside it, doubling alone
	// could run out of rounds before meeting a leaf.
	if reach := 2 * math.Sqrt(t.root.mbr.MinDist2(q)); reach > 0 {
		width, height = max(width, reach), max(height, reach)
	}

	s := knnScratchPool.Get().(*knnScratch)
	s.reset(k, q, t.store.NumBlocks())
	w := &s.walk

	expand := func(w *index.Walk[int], id int) { w.Offer(t.store.Peek(id).Slots()...) }
	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		wq := geom.RectAround(q, width, height)
		t.forCells(wq, func(c *blockCursor) {
			for id := c.next(); id != store.NilBlock; id = c.next() {
				if !s.seen.testAndSet(id) {
					w.Push(id, t.blockMBR[id].MinDist2(q))
				}
			}
			t.store.CountReads(c.reads)
		})
		w.Drain(expand)
		if !w.Full() {
			width *= 2
			height *= 2
			continue
		}
		kth := math.Sqrt(w.Bound())
		if kth > math.Sqrt(width*width+height*height)/2 {
			width = 2 * kth
			height = 2 * kth
			continue
		}
		if kth > min(width, height)/2 {
			sq, bound := geom.RectAround(q, 2*kth, 2*kth), w.Bound()
			t.forCells(sq, func(c *blockCursor) {
				queued := 0
				for id := c.next(); id != store.NilBlock; id = c.next() {
					if d := t.blockMBR[id].MinDist2(q); d < bound && !s.seen.testAndSet(id) {
						w.Push(id, d)
						queued++
					}
				}
				t.store.CountReads(queued)
			})
			w.Drain(expand)
		}
		break
	}
	out := w.Points()
	knnScratchPool.Put(s)
	return out
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

// knnScratch is the per-call working state of KNN — the block queue and the
// seen-block bitmap — recycled through knnScratchPool; the walk's candidate
// set draws on index's own pool, so a query allocates only its answer. The
// index itself holds no query state: shards run many KNN calls on one RSMI
// under a read lock.
type knnScratch struct {
	walk index.Walk[int]
	seen bitmap
}

var knnScratchPool = sync.Pool{New: func() any { return new(knnScratch) }}

// reset prepares the scratch for a k-nearest search around q over an index
// of the given block count.
func (s *knnScratch) reset(k int, q geom.Point, blocks int) {
	s.walk.Reset(q, k)
	words := (blocks + 63) / 64
	if cap(s.seen) < words {
		s.seen = make(bitmap, words)
		return
	}
	s.seen = s.seen[:words]
	clear(s.seen)
}
