package core

import (
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
)

// This file implements the RSMIa variant (§4.2 end, §6.2.3): exact window
// and kNN answers obtained by an R-tree-style traversal over the MBRs stored
// with every sub-model and block, instead of the leaves' cells.

// ExactWindow returns the exact window query answer using MBR traversal:
// it walks the leaves a window query walks (forLeaves) and scans each one's
// whole run instead of its cells' blocks. Only the blocks whose cached MBR
// meets the window count as read.
//
// This context-free form is the implementation layer: ExactWindowContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) ExactWindow(q geom.Rect) []geom.Point {
	return t.exactWindowAppend(nil, q)
}

// exactWindowAppend is ExactWindow appending into dst (which may be nil),
// the shared implementation behind ExactWindow and ExactWindowAppend. It
// allocates only when dst has to grow.
func (t *RSMI) exactWindowAppend(dst []geom.Point, q geom.Rect) []geom.Point {
	forLeaves(t.root, q, func(n *node) {
		c := t.scan(n, 0, len(n.blocks)-1)
		var admitted int
		dst, admitted = t.collect(dst, &c, q)
		t.store.CountReads(admitted)
	})
	return dst
}

// exactStep is a node of ExactKNN's best-first walk: a tree node, or a
// block of a leaf when node is nil.
type exactStep struct {
	node  *node
	block int
}

// exactWalks pools ExactKNN's walks.
var exactWalks index.Walks[exactStep]

// ExactKNN returns the exact k nearest neighbours using the best-first
// algorithm of Roussopoulos et al. [40] over the RSMI's MBR hierarchy (see
// ExactKNNInto), nearest first, ties in the canonical point order.
//
// This context-free form is the implementation layer: ExactKNNContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
//
//rsmi:noalloc
func (t *RSMI) ExactKNN(q geom.Point, k int) []geom.Point {
	if t.n == 0 || k <= 0 || !q.IsFinite() {
		// Nothing is nearest to a point that is nowhere.
		return nil
	}
	best := index.NewNearest(q, k)
	t.ExactKNNInto(&best)
	return best.Points()
}

// ExactKNNInto offers the index's points to best by the best-first walk of
// ExactKNN: inner nodes queue their children, leaves queue their blocks by
// cached MBR, and a block is read (counted) only when it is expanded. Points
// never enter the queue. best may already hold other indexes' candidates;
// the walk then expands only what could displace one of them. Its queue
// comes from a pool, so it allocates nothing of its own.
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
func (t *RSMI) ExactKNNInto(best *index.Nearest) {
	if t.n == 0 {
		return
	}
	q := best.Query()
	seed, lo, hi := t.seedCell(best)
	exactWalks.Search(best, exactStep{node: t.root}, func(w *index.Walk[exactStep], s exactStep) {
		switch {
		case s.node == nil:
			w.Offer(t.store.Read(s.block).Slots()...)
		case !s.node.leaf:
			for _, c := range s.node.children {
				if c != nil {
					w.Push(exactStep{node: c}, c.mbr.MinDist2(q))
				}
			}
		default:
			c := t.scan(s.node, 0, len(s.node.blocks)-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				// Only the seed's base blocks are skipped, not their chains.
				if s.node == seed && id == c.base && c.pos >= lo && c.pos <= hi {
					continue
				}
				w.Push(exactStep{block: id}, t.blockMBR[id].MinDist2(q))
			}
		}
	})
}

// seedCell offers best the base blocks of the query's own leaf cell, read
// and counted, and returns that leaf and their positions [lo, hi] in its
// list. It offers nothing and
// returns a nil leaf when best already holds k points, or when the query
// lies outside the MBR of the leaf it descends to, where its cell says
// little about where its neighbours are.
func (t *RSMI) seedCell(best *index.Nearest) (leaf *node, lo, hi int) {
	q := best.Query()
	if best.Full() {
		return nil, 0, -1
	}
	if leaf = t.descend(q); leaf == nil || !leaf.mbr.Contains(q) {
		return nil, 0, -1
	}
	lo, hi, _ = t.cellBlocks(leaf, t.leafCell(leaf, q))
	for _, id := range leaf.blocks[lo : hi+1] {
		best.Offer(t.store.Read(int(id)).Slots()...)
	}
	return leaf, lo, hi
}

// Exact wraps the RSMI as an index.Index whose window and kNN queries are
// exact (the "RSMIa" series of Figs. 10–19). Point queries and updates are
// shared with the underlying RSMI.
type Exact struct {
	*RSMI
}

var _ index.Index = Exact{}

// AsExact returns the RSMIa view of the index.
func (t *RSMI) AsExact() Exact { return Exact{t} }

// Name implements index.Index.
func (e Exact) Name() string { return "RSMIa" }

// WindowQuery implements index.Index with exact answers.
func (e Exact) WindowQuery(q geom.Rect) []geom.Point { return e.ExactWindow(q) }

// KNN implements index.Index with exact answers.
func (e Exact) KNN(q geom.Point, k int) []geom.Point { return e.ExactKNN(q, k) }

// Stats implements index.Index.
func (e Exact) Stats() index.Stats {
	s := e.RSMI.Stats()
	s.Name = e.Name()
	return s
}
