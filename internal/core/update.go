package core

import (
	"errors"
	"math/bits"

	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
)

// This file implements the update handling of §5: insertions with overflow
// chaining, flag-based deletions, recursive MBR maintenance, and the
// periodic rebuild of the RSMIr variant (§6.2.5). Unlike §5, an insert is
// filed beside its spatial neighbours among its cell's base blocks rather
// than under a predicted block, an overflow block that deletes
// emptied is reused before a new one is allocated (see Insert), and a
// delete searches a chain before its base block (see findForDelete).

// ErrNonFinitePoint is returned by InsertContext — of this index and of the
// engines built on it — for a point with a NaN or infinite coordinate. Such a
// point cannot be indexed: ExtendPoint would turn its block's MBR, every
// ancestor's and the shard's routing region into NaN or unbounded rectangles,
// and queries would silently lose the points under them. Builds skip such
// points for the same reason.
var ErrNonFinitePoint = errors.New("core: point has a NaN or infinite coordinate")

// Insert adds p to the index (§5). p's leaf cell names the base blocks
// its cell's points were packed into, and p is filed under the home block
// among them: the first whose cached MBR holds p, else the one whose MBR
// lies nearest to p (see home). The first block of the home's chain with
// space takes p; if none has space, an overflow block is spliced after the
// chain's tail: one that deletes emptied, taken from its own chain (see
// reuseEmpty), or else a new one, marked Inserted. Ancestor MBRs are
// extended recursively.
//
// §5 files p under the block the leaf model predicts. The cell's blocks are
// where a point query and Delete for p look, so p is found whichever of them
// takes it; filing it beside its neighbours keeps every block's MBR tight,
// which is what the exact walks prune by. Nothing a query reads is widened.
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
		*t = *NewOwned(append(t.AllPoints(), p), t.opts)
		return
	}
	lo, hi, _ := t.cellBlocks(leaf, t.leafCell(leaf, p))
	base := t.store.Peek(t.home(lo, hi, p))

	// Walk the overflow chain in place to the first block with space, and to
	// its tail only when none has space. The accesses are one to locate the
	// base block, then one per block walked, the base block again at its
	// head, reported once.
	var target *store.Block
	lastInChain := base
	reads := 1
	for b := base; b != nil && (b == base || b.Inserted); b = t.store.Peek(b.Next) {
		reads++
		lastInChain = b
		if b.HasSpace() {
			target = b
			break
		}
	}
	t.store.CountReads(reads)
	switch {
	case target == nil:
		if target = t.reuseEmpty(); target == nil {
			target = t.store.Alloc()
			target.Inserted = true
			t.appendBlockMBR(geom.EmptyRect())
		}
		t.store.Link(lastInChain, target)
		if lastInChain == base {
			t.chainHeads[base.ID] = int32(target.ID)
		}
	case target.Inserted && target.Live() == 0:
		t.empty.remove(target.ID)
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

// home returns the global id of the base block Insert files p under, out of
// base blocks [lo, hi] of p's cell: the first in block order whose cached
// MBR holds p — the first one a point query or Delete for p meets — or,
// when none does, the one whose MBR lies nearest to p in L1 distance (half
// the growth of its perimeter were p added to it), the first of equals. It
// compares cached MBRs only and reads no block.
func (t *RSMI) home(lo, hi int, p geom.Point) int {
	best, bestDist := lo, l1Dist(t.blockMBR[lo], p)
	for id := lo + 1; bestDist > 0 && id <= hi; id++ {
		if d := l1Dist(t.blockMBR[id], p); d < bestDist {
			best, bestDist = id, d
		}
	}
	return best
}

// reuseEmpty takes the lowest-id overflow block that holds no live point
// out of its chain and returns it with an empty MBR, ready to be chained
// under another base block; it returns nil when there is none. Neighbour
// filing spreads inserts over many chains, and under an insert-then-delete
// load each would otherwise keep an empty block for good. Which block is
// reused depends only on the blocks' contents, so a loaded index places
// inserts as the saved one would have.
func (t *RSMI) reuseEmpty() *store.Block {
	id := t.empty.lowest()
	if id < 0 {
		return nil
	}
	t.empty.remove(id)
	b := t.store.Peek(id)
	if b.Prev < t.baseBlocks {
		// b heads its chain: the chain now starts at b's successor, if that
		// is an overflow block rather than the next base block.
		head := int32(store.NilBlock)
		if b.Next >= t.baseBlocks {
			head = int32(b.Next)
		}
		t.chainHeads[b.Prev] = head
	}
	t.store.Unlink(b)
	t.blockMBR[id] = geom.EmptyRect()
	return b
}

// blockSet is a set of block ids: the index's overflow blocks that hold no
// live point.
type blockSet struct {
	words bitmap
	n     int
}

// add puts id in the set.
func (s *blockSet) add(id int) {
	if w := id >> 6; w >= len(s.words) {
		s.words = append(s.words, make(bitmap, w+1-len(s.words))...)
	}
	if !s.words.testAndSet(id) {
		s.n++
	}
}

// remove takes id out of the set.
func (s *blockSet) remove(id int) {
	w, bit := id>>6, uint64(1)<<(id&63)
	if w < len(s.words) && s.words[w]&bit != 0 {
		s.words[w] &^= bit
		s.n--
	}
}

// lowest returns the lowest id in the set, -1 when the set is empty.
func (s *blockSet) lowest() int {
	if s.n == 0 {
		return -1
	}
	for w, word := range s.words {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}

// l1Dist is the L1 distance from p to r, 0 when r holds p.
func l1Dist(r geom.Rect, p geom.Point) float64 {
	return max(r.MinX-p.X, 0, p.X-r.MaxX) + max(r.MinY-p.Y, 0, p.Y-r.MaxY)
}

// Delete removes the point with exactly p's coordinates (§5): the point is
// located among its cell's blocks, as a point query locates it but
// searching each chain before its base block (see findForDelete), swapped
// with the last point in its block, and flagged deleted. Blocks are never
// deallocated, so no cell's blocks move; an overflow block left empty waits
// for the next insert that needs one (reuseEmpty). MBRs are left unshrunk
// (conservative: supersets stay correct).
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
	b, slot := t.findForDelete(leaf, p)
	if b == nil {
		return false
	}
	b.Delete(slot)
	if b.Inserted && b.Live() == 0 {
		t.empty.add(b.ID)
	}
	t.n--
	// Decrement live counts down the model path.
	leaf.points--
	for _, n := range path {
		n.points--
	}
	return true
}

// findForDelete is findPoint for Delete with one change of order: a base
// block that has an overflow chain is searched after its chain, not before.
// A point Insert filed under a full home block lies in the home's chain,
// and the home's MBR holds it, so a base-first search would scan the whole
// full block in vain first — on every delete of a recently inserted point.
// A point the base block holds itself costs instead a search of the chain's
// blocks whose MBRs hold it. The first base block is searched from the slot
// the cell's run starts at, as findPoint searches it. The accesses counted
// are the blocks walked up to the one that holds p, as for findPoint.
func (t *RSMI) findForDelete(leaf *node, q geom.Point) (*store.Block, int) {
	lo, hi, from := t.cellBlocks(leaf, t.leafCell(leaf, q))
	c := t.scan(lo, hi)
	held := store.NilBlock // a base block whose MBR holds q, searched after its chain
	for id := c.next(); ; id = c.next() {
		if held != store.NilBlock && (id == store.NilBlock || id < t.baseBlocks) {
			// The walk has left held's chain.
			in := t.store.Peek(held)
			if slot := in.FindFrom(q, startSlot(held, lo, from)); slot >= 0 {
				if id != store.NilBlock {
					c.reads-- // the next base block was yielded, not searched
				}
				t.store.CountReads(c.reads)
				return in, slot
			}
			held = store.NilBlock
		}
		if id == store.NilBlock {
			t.store.CountReads(c.reads)
			return nil, -1
		}
		if !t.blockMBR[id].Contains(q) {
			continue
		}
		if id < t.baseBlocks && t.chainHeads[id] != store.NilBlock {
			held = id
			continue
		}
		in := t.store.Peek(id)
		if slot := in.FindFrom(q, startSlot(id, lo, from)); slot >= 0 {
			t.store.CountReads(c.reads)
			return in, slot
		}
	}
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

// Rebuild reconstructs the index from its live points, cutting every node
// afresh and repacking all blocks. This is the periodic rebuild the
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
	*t = *NewOwned(t.AllPoints(), t.opts)
}

// rebuildFraction is the insert fraction triggering an RSMIr rebuild
// (§6.2.5: "rebuilds ... after every 10%n insertions").
const rebuildFraction = 0.1

// Rebuilder wraps an RSMI as the RSMIr variant: after every insertion it
// checks the 10% n policy and rebuilds when due. It implements index.Index.
type Rebuilder struct {
	*RSMI
}

// AsRebuilder returns the RSMIr view of the index.
func (t *RSMI) AsRebuilder() *Rebuilder {
	return &Rebuilder{RSMI: t}
}

// Name implements index.Index.
func (r *Rebuilder) Name() string { return "RSMIr" }

// Insert implements index.Index, rebuilding when the policy fires.
func (r *Rebuilder) Insert(p geom.Point) {
	r.RSMI.Insert(p)
	if float64(r.RSMI.inserted) >= rebuildFraction*float64(r.RSMI.n) {
		r.RSMI.Rebuild()
	}
}

// Stats implements index.Index.
func (r *Rebuilder) Stats() index.Stats {
	s := r.RSMI.Stats()
	s.Name = r.Name()
	return s
}
