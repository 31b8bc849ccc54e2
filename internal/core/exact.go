package core

import (
	"container/heap"

	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
)

// This file implements the RSMIa variant (§4.2 end, §6.2.3): exact window
// and kNN answers obtained by an R-tree-style traversal over the MBRs stored
// with every sub-model and block, instead of the learned predictions.

// ExactWindow returns the exact window query answer using MBR traversal.
//
// This context-free form is the implementation layer: ExactWindowContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) ExactWindow(q geom.Rect) []geom.Point {
	return t.exactWindow(nil, t.root, q)
}

// exactWindow appends the window's points under n to dst. Only the blocks
// whose cached MBR meets the window count as read.
func (t *RSMI) exactWindow(dst []geom.Point, n *node, q geom.Rect) []geom.Point {
	if n == nil || !n.mbr.Intersects(q) {
		return dst
	}
	for _, c := range n.children {
		dst = t.exactWindow(dst, c, q)
	}
	if n.leaf {
		c := t.scan(n.firstBlock, n.firstBlock+n.numBlocks-1)
		var admitted int
		dst, admitted = t.collect(dst, &c, q)
		t.store.CountReads(admitted)
	}
	return dst
}

// exactEntry is a best-first queue entry: an internal node, a leaf, a block,
// or a candidate point.
type exactEntry struct {
	dist2 float64
	node  *node
	block int // block id when node == nil and !isPoint
	pt    geom.Point
	isPt  bool
}

type exactQueue []exactEntry

func (q exactQueue) Len() int            { return len(q) }
func (q exactQueue) Less(i, j int) bool  { return q[i].dist2 < q[j].dist2 }
func (q exactQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *exactQueue) Push(x interface{}) { *q = append(*q, x.(exactEntry)) }
func (q *exactQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// ExactKNN returns the exact k nearest neighbours using the best-first
// algorithm of Roussopoulos et al. [40] over the RSMI's MBR hierarchy.
//
// This context-free form is the implementation layer: ExactKNNContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) ExactKNN(q geom.Point, k int) []geom.Point {
	if k <= 0 || t.n == 0 || !q.IsFinite() {
		// As in KNN: nothing is nearest to a point that is nowhere.
		return nil
	}
	pq := &exactQueue{}
	heap.Init(pq)
	heap.Push(pq, exactEntry{dist2: t.root.mbr.MinDist2(q), node: t.root})
	var out []geom.Point
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(exactEntry)
		switch {
		case e.isPt:
			out = append(out, e.pt)
		case e.node != nil && !e.node.leaf:
			for _, c := range e.node.children {
				if c != nil {
					heap.Push(pq, exactEntry{dist2: c.mbr.MinDist2(q), node: c})
				}
			}
		case e.node != nil: // leaf: enqueue its blocks by MBR distance
			c := t.scan(e.node.firstBlock, e.node.firstBlock+e.node.numBlocks-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				heap.Push(pq, exactEntry{dist2: t.blockMBR[id].MinDist2(q), block: id})
			}
		default: // block: read it (counted) and enqueue its points
			for _, p := range t.store.Read(e.block).Slots() {
				heap.Push(pq, exactEntry{dist2: q.Dist2(p), pt: p, isPt: true})
			}
		}
	}
	return out
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
