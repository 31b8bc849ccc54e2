package core

import (
	"errors"

	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
)

// This file implements the update handling of §5: insertions into predicted
// blocks with overflow chaining, flag-based deletions, recursive MBR
// maintenance, and the periodic rebuild of the RSMIr variant (§6.2.5).

// ErrNonFinitePoint is returned by InsertContext — of this index and of the
// engines built on it — for a point with a NaN or infinite coordinate. Such a
// point cannot be indexed: ExtendPoint would turn its block's MBR, every
// ancestor's and the shard's routing region into NaN or unbounded rectangles,
// and queries would silently lose the points under them. Builds skip such
// points for the same reason.
var ErrNonFinitePoint = errors.New("core: point has a NaN or infinite coordinate")

// Insert adds p to the index (§5). The point query locates the predicted
// block; if it (or its overflow chain) has space, p is placed there,
// otherwise a new overflow block is created, marked Inserted so it does not
// count towards the error bounds, and spliced after the chain. Ancestor
// MBRs are extended recursively.
//
// A point with a NaN or infinite coordinate is not inserted: this form drops
// it, InsertContext reports ErrNonFinitePoint.
//
// This context-free form is the implementation layer: InsertContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) Insert(p geom.Point) {
	if !p.IsFinite() {
		return
	}
	if t.root == nil || t.baseBlocks == 0 {
		// Degenerate empty index: rebuild from a single point.
		*t = *New([]geom.Point{p}, t.opts)
		return
	}
	var stack [maxDepth]*node
	leaf, path := t.descendPath(p, stack[:0])
	if leaf == nil {
		// No leaf reachable (cannot happen on a built index, but keep the
		// invariant that Insert never loses points).
		*t = *newOwned(append(t.AllPoints(), p), t.opts)
		return
	}
	base := t.store.Peek(leaf.firstBlock + leaf.predictClamped(p))

	// Walk the overflow chain in place looking for space. The accesses are
	// what they have always been — one to locate the base block, then one per
	// block of its chain, the base block again at its head — reported once.
	var target *store.Block
	lastInChain := base
	reads := 1
	for b := base; b != nil && (b == base || b.Inserted); b = t.store.Peek(b.Next) {
		reads++
		lastInChain = b
		if target == nil && b.HasSpace() {
			target = b
		}
	}
	t.store.CountReads(reads)
	if target == nil {
		target = t.store.Alloc()
		target.Inserted = true
		t.appendBlockMBR(geom.EmptyRect())
		t.store.Link(lastInChain, target)
		if lastInChain == base {
			t.chainHead[base.ID] = int32(target.ID)
		}
	}
	target.Append(p)
	t.blockMBR[target.ID] = t.blockMBR[target.ID].ExtendPoint(p)

	// Recursive MBR (and bookkeeping) updates up the path.
	leaf.mbr = leaf.mbr.ExtendPoint(p)
	leaf.points++
	for _, n := range path {
		n.mbr = n.mbr.ExtendPoint(p)
		n.points++
	}
	t.n++
	t.inserted++
}

// Delete removes the point with exactly p's coordinates (§5): the point is
// located with a point query, swapped with the last point in its block, and
// flagged deleted. Blocks are never deallocated, keeping the error bounds
// valid. MBRs are left unshrunk (conservative: supersets stay correct).
//
// This context-free form is the implementation layer: DeleteContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) Delete(p geom.Point) bool {
	var stack [maxDepth]*node
	leaf, path := t.descendPath(p, stack[:0])
	if leaf == nil {
		return false
	}
	lo, hi := leaf.scanBounds(p)
	b, _, slot := t.findPointIn(p, lo, hi)
	if b == nil {
		return false
	}
	b.Delete(slot)
	t.n--
	// Decrement live counts down the model path.
	leaf.points--
	for _, n := range path {
		n.points--
	}
	return true
}

// InsertedSinceRebuild returns the number of insertions since the index was
// built or last rebuilt; the RSMIr policy of §6.2.5 rebuilds after every
// 10% n insertions.
func (t *RSMI) InsertedSinceRebuild() int { return t.inserted }

// AllPoints returns every live point in global block order.
func (t *RSMI) AllPoints() []geom.Point {
	out := make([]geom.Point, 0, t.n)
	if t.baseBlocks == 0 {
		return out
	}
	t.scanAll(func(b *store.Block) { out = append(out, b.Slots()...) })
	return out
}

// scanAll visits every block in list order without counting accesses
// (structural maintenance, not query work).
func (t *RSMI) scanAll(fn func(b *store.Block)) {
	cur := 0
	for cur != store.NilBlock {
		b := t.store.Peek(cur)
		if b == nil {
			return
		}
		fn(b)
		cur = b.Next
	}
}

// Rebuild reconstructs the index from its live points, retraining all
// sub-models and repacking all blocks. This is the periodic rebuild the
// paper prescribes for sustained update loads ("A periodic rebuild may be
// run (e.g., overnight) to retain a high query efficiency", §5; evaluated as
// RSMIr in §6.2.5). The paper rebuilds only over-threshold sub-models; a
// full rebuild is used here because block ids must stay globally monotone
// in curve order for window scans — see EXPERIMENTS.md for the impact.
//
// This context-free form is the implementation layer: RebuildContext is the
// entry-checked wrapper that serving code reaches through the Engine
// surface, and it delegates here after observing ctx.
func (t *RSMI) Rebuild() {
	*t = *newOwned(t.AllPoints(), t.opts)
}

// Rebuilder wraps an RSMI as the RSMIr variant: after every insertion it
// checks the 10% n policy and rebuilds when due. It implements index.Index.
type Rebuilder struct {
	*RSMI
	// Fraction is the insert fraction triggering a rebuild (default 0.1,
	// §6.2.5: "rebuilds ... after every 10%n insertions").
	Fraction float64
}

// AsRebuilder returns the RSMIr view of the index.
func (t *RSMI) AsRebuilder() *Rebuilder {
	return &Rebuilder{RSMI: t, Fraction: 0.1}
}

// Name implements index.Index.
func (r *Rebuilder) Name() string { return "RSMIr" }

// Insert implements index.Index, rebuilding when the policy fires.
func (r *Rebuilder) Insert(p geom.Point) {
	r.RSMI.Insert(p)
	if float64(r.RSMI.inserted) >= r.Fraction*float64(r.RSMI.n) {
		r.RSMI.Rebuild()
	}
}

// Stats implements index.Index.
func (r *Rebuilder) Stats() index.Stats {
	s := r.RSMI.Stats()
	s.Name = r.Name()
	return s
}
