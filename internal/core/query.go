package core

import (
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
	lo, hi, from := t.cellBlocks(leaf, t.cell(leaf, q))
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
// q: the leaves a window query reads. A leaf's MBR covers every point it
// holds, so the leaves it skips hold none of q's points.
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

// WindowQuery returns the points of the window q by the MBR walk of the
// paper's exact variant RSMIa (§4.2 end, §6.2.3): in every leaf whose MBR
// meets the window (forLeaves), read the blocks whose cached MBR meets it and
// filter their points. Algorithm 2 instead scans the block range between the
// predictions of the window's corners and may miss points (recall > 87%).
// The walk's answer has neither false positives nor misses, and it read
// fewer blocks than Algorithm 2 over the leaves' exact cells (EXPERIMENTS.md,
// "One read path").
//
// This context-free form is the implementation layer: WindowQueryContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) WindowQuery(q geom.Rect) []geom.Point {
	return t.windowQueryAppend(nil, q)
}

// windowQueryAppend is WindowQuery appending into dst (which may be nil),
// the shared implementation behind WindowQuery and WindowQueryAppend. It
// allocates only when dst has to grow. Only the blocks whose cached MBR
// meets the window count as read, so an inverted window, which meets no
// MBR, reads none.
//
//rsmi:noalloc
func (t *RSMI) windowQueryAppend(dst []geom.Point, q geom.Rect) []geom.Point {
	forLeaves(t.root, q, func(n *node) {
		c := t.scan(n, 0, len(n.blocks)-1)
		var admitted int
		dst, admitted = t.collect(dst, &c, q)
		t.store.CountReads(admitted)
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

// knnStep is a node of KNN's best-first walk: a tree node, or a block of a
// leaf when node is nil.
type knnStep struct {
	node  *node
	block int
}

// knnWalks pools KNN's walks.
var knnWalks index.Walks[knnStep]

// KNN returns the exact k nearest neighbours of q, nearest first, ties in
// the canonical point order, by the best-first walk of Roussopoulos et al.
// [40] over the RSMI's MBR hierarchy (see KNNInto): RSMIa's kNN (§6.2.4).
// Algorithm 3 instead probes an expanding region, sized by learned
// per-dimension CDFs, with window queries, and may miss neighbours
// (recall > 88%).
//
// This context-free form is the implementation layer: KNNContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
//
//rsmi:noalloc
func (t *RSMI) KNN(q geom.Point, k int) []geom.Point {
	if t.Len() == 0 || k <= 0 || !q.IsFinite() {
		// Nothing is nearest to a point that is nowhere.
		return nil
	}
	best := index.NewNearest(q, k)
	t.KNNInto(&best)
	return best.Points()
}

// KNNInto offers the index's points to best by the best-first walk of KNN:
// inner nodes queue their children, leaves queue their blocks by cached
// MBR, and a block is read (counted) only when it is expanded. Points never
// enter the queue. best may already hold other indexes' candidates; the
// walk then expands only what could displace one of them. Its queue comes
// from a pool, so it allocates nothing of its own.
//
// Unlike the plain search of [40], the walk is seeded: while best holds
// fewer than k points and q lies in the MBR of the leaf it descends to, the
// base blocks of q's own cell there are read and offered first, so a bound
// exists before the first fan-out and the walk queues nothing beyond it (see
// index.Walk.Push). Expanding that leaf then skips those base blocks; their
// overflow chains are queued as any other block, so no point is offered
// twice.
//
//rsmi:noalloc
func (t *RSMI) KNNInto(best *index.Nearest) {
	if t.Len() == 0 {
		return
	}
	q := best.Query()
	seed, lo, hi := t.seedCell(best)
	knnWalks.Search(best, knnStep{node: t.root}, func(w *index.Walk[knnStep], s knnStep) {
		switch {
		case s.node == nil:
			w.Offer(t.store.Read(s.block).Slots()...)
		case !s.node.leaf:
			for _, c := range s.node.children {
				if c != nil {
					w.Push(knnStep{node: c}, c.mbr.MinDist2(q))
				}
			}
		default:
			c := t.scan(s.node, 0, len(s.node.blocks)-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				// Only the seed's base blocks are skipped, not their chains.
				if s.node == seed && id == c.base && c.pos >= lo && c.pos <= hi {
					continue
				}
				w.Push(knnStep{block: id}, t.blockMBR[id].MinDist2(q))
			}
		}
	})
}

// seedCell offers best the base blocks of the query's own leaf cell, read
// and counted, and returns that leaf and their positions [lo, hi] in its
// list. It offers nothing and returns a nil leaf when best already holds k
// points, or when the query lies outside the MBR of the leaf it descends
// to, where its cell says little about where its neighbours are.
func (t *RSMI) seedCell(best *index.Nearest) (leaf *node, lo, hi int) {
	q := best.Query()
	if best.Full() {
		return nil, 0, -1
	}
	if leaf = t.descend(q); leaf == nil || !leaf.mbr.Contains(q) {
		return nil, 0, -1
	}
	lo, hi, _ = t.cellBlocks(leaf, t.cell(leaf, q))
	for _, id := range leaf.blocks[lo : hi+1] {
		best.Offer(t.store.Read(int(id)).Slots()...)
	}
	return leaf, lo, hi
}
