package core

import (
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
)

// This file implements the RSMIa variant (§4.2 end, §6.2.3): exact window
// and kNN answers obtained by an R-tree-style traversal over the MBRs stored
// with every sub-model and block, instead of the learned predictions.

// ExactWindow returns the exact window query answer using MBR traversal:
// it walks the leaves a window query walks (forLeaves) and scans each one's
// whole run instead of its corners' range. Only the blocks whose cached MBR
// meets the window count as read.
//
// This context-free form is the implementation layer: ExactWindowContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) ExactWindow(q geom.Rect) []geom.Point {
	var dst []geom.Point
	forLeaves(t.root, q, func(n *node) {
		c := t.scan(n.firstBlock, n.firstBlock+n.numBlocks-1)
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
// algorithm of Roussopoulos et al. [40] over the RSMI's MBR hierarchy: inner
// nodes queue their children, leaves queue their blocks by cached MBR, and a
// block is read (counted) only when it is expanded. Points never enter the
// queue.
//
// This context-free form is the implementation layer: ExactKNNContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
//
//rsmi:noalloc
func (t *RSMI) ExactKNN(q geom.Point, k int) []geom.Point {
	if t.n == 0 {
		return nil
	}
	// As in KNN, BestFirst finds nothing nearest to a point that is nowhere.
	return exactWalks.BestFirst(q, k, exactStep{node: t.root}, func(w *index.Walk[exactStep], s exactStep) {
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
			c := t.scan(s.node.firstBlock, s.node.firstBlock+s.node.numBlocks-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				w.Push(exactStep{block: id}, t.blockMBR[id].MinDist2(q))
			}
		}
	})
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
