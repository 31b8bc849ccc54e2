package core

import (
	"math"
	"sync"

	"rsmi/internal/cdf"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// locate is Algorithm 1's model part as window corners use it: it descends
// to the leaf model for q and returns the predicted global block id with the
// leaf's error bounds as a clamped scan range [lo, hi] over base blocks.
// Point queries scan their prediction's span instead (pointBounds).
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
// order. A base block without a chain — its chainHead says so — is yielded
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
		c.chain = int(c.t.bases[id].chainHead)
	} else if c.chain = c.t.store.Peek(id).Next; c.chain < c.t.baseBlocks {
		// The chain ran into the next base block or the end of the list.
		c.chain = store.NilBlock
	}
	c.reads++
	return id
}

// pointBounds returns the base-block range a point query for q in leaf
// scans: the span of q's prediction, empty when no point was ever filed
// under it.
func (t *RSMI) pointBounds(leaf *node, q geom.Point) (lo, hi int) {
	s := t.bases[leaf.firstBlock+leaf.predictClamped(q)].span
	return leaf.firstBlock + int(s.lo), leaf.firstBlock + int(s.hi)
}

// PointQuery implements Algorithm 1: descend the models, then scan the
// block range (and any overflow chains) for a point with q's exact
// coordinates. The range is the span of q's prediction, not the leaf's
// error range [pred − errDown, pred + errUp]: every point filed under the
// prediction lies in it, and it is never wider (see "Correctness
// guarantees"). It implements index.Index and never returns a false
// negative for indexed points.
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
	lo, hi := t.pointBounds(leaf, q)
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
//
// A corner's point query can only narrow its error-bounded range [lo, hi] to
// the one base block it finds the corner in, and only the corners holding the
// least lo and the greatest hi set the range. So every corner is located but
// probed lazily: the corner holding the least lo is probed, and a hit moves
// its lo up, until the corner holding it is one already probed; then the same
// for the greatest hi. A corner that sets neither extreme is never probed —
// window corners are almost never indexed points, so a probe mostly scans its
// whole range for nothing — and the range is the one probing every corner
// gives.
func (t *RSMI) windowBounds(q geom.Rect) (begin, end int, any bool) {
	// Two corners for Z-curves, four for Hilbert curves (§4.2).
	corners := [4]geom.Point{
		{X: q.MinX, Y: q.MinY}, {X: q.MaxX, Y: q.MaxY},
		{X: q.MinX, Y: q.MaxY}, {X: q.MaxX, Y: q.MinY},
	}
	m := len(corners)
	if t.opts.Curve == sfc.Z {
		m = 2
	}
	var cs [4]cornerRange
	n := 0
	for _, c := range corners[:m] {
		if lo, hi, ok := t.locate(c); ok {
			cs[n] = cornerRange{p: c, lo: lo, hi: hi}
			n++
		}
	}
	if n == 0 {
		return math.MaxInt, -1, false
	}
	return cs[t.settle(cs[:n], false)].lo, cs[t.settle(cs[:n], true)].hi, true
}

// cornerRange is a window corner's block range: error-bounded until the
// corner is probed, and the one base block it was found in after a hit.
type cornerRange struct {
	p      geom.Point
	lo, hi int
	probed bool
}

// key is the bound settle minimises: lo for the range's begin, -hi for its
// end.
func (c *cornerRange) key(high bool) int {
	if high {
		return -c.hi
	}
	return c.lo
}

// settle probes corners of cs until the one holding the least key has been
// probed, and returns its index. Among corners tied on the key an already
// probed one is taken: it needs no probe.
func (t *RSMI) settle(cs []cornerRange, high bool) int {
	for {
		x := 0
		for i := 1; i < len(cs); i++ {
			if ki, kx := cs[i].key(high), cs[x].key(high); ki < kx || ki == kx && cs[i].probed && !cs[x].probed {
				x = i
			}
		}
		c := &cs[x]
		if c.probed {
			return x
		}
		c.probed = true
		// If the corner itself is indexed, its actual block is an exact
		// bound; otherwise the error-bounded range stands.
		if b, base, _ := t.findPointIn(c.p, c.lo, c.hi); b != nil {
			c.lo, c.hi = base, base
		}
	}
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
	if !(q.MinX <= q.MaxX && q.MinY <= q.MaxY) {
		// An inverted window, or one with a NaN side, contains nothing.
		return dst
	}
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
// approximate (recall > 88% in §6.2.4) and sorted by distance, equidistant
// points in the canonical point order.
//
// Within a round the region's blocks are searched best-first: every block
// the round has not seen yet is queued by the MINDIST of its cached MBR and
// the queue is drained (index.Walk.Drain), which stops at the first block no
// nearer than the current k-th candidate (the MINDIST test of Algorithm 3,
// line 7). A block queued once is never reconsidered: the bound only
// shrinks, so a block that failed the test keeps failing it.
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

	s := knnScratchPool.Get().(*knnScratch)
	s.reset(k, q, t.store.NumBlocks())
	w := &s.walk

	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		wq := geom.RectAround(q, width, height)
		if begin, end, ok := t.windowBounds(wq); ok {
			c := t.scan(begin, end)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				if !s.seen.testAndSet(id) {
					w.Push(id, t.blockMBR[id].MinDist2(q))
				}
			}
			t.store.CountReads(c.reads)
			w.Drain(func(w *index.Walk[int], id int) { w.Offer(t.store.Peek(id).Slots()...) })
		}
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
