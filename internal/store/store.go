// Package store implements the block storage substrate shared by every index
// in this repository.
//
// The paper stores points in external-memory style blocks of capacity B
// (default 100) and reports the number of block accesses as the
// external-memory cost indicator, while actually running everything in main
// memory (§6.1). This package mirrors that: blocks live in memory, every
// Read counts one block access, and Manager reports byte sizes so the index
// size experiments (Figs. 7 and 9) can be reproduced.
//
// Blocks link into doubly linked lists through their Prev and Next ids:
// Pack links a run in slice order (§3.2: "in each block, we further store
// pointers to its preceding and subsequent blocks"), and Link and Unlink
// splice the overflow chains of the insertion algorithm (§5). What a list
// means is the index's to say.
//
// A block's live points are a prefix of its slots. §5 deletes by swapping
// the point with the last one of the block and marking it deleted, and an
// insertion takes the first deleted slot, so the dead slots are always the
// tail: the count of live points is the whole deletion record, there is no
// tombstone per slot, and every scan is a loop over one slice.
package store

import (
	"fmt"
	"sync/atomic"

	"rsmi/internal/geom"
)

// DefaultBlockCapacity is the paper's block capacity B = 100 (§6.1).
const DefaultBlockCapacity = 100

// NilBlock is the null block pointer.
const NilBlock = -1

// pointBytes is the storage footprint of one data point: two float64
// coordinates. Used for size accounting only.
const pointBytes = 16

// blockHeaderBytes approximates the per-block overhead: prev/next pointers,
// an id, a count, and the inserted flag, as 4-byte fields plus the flag.
const blockHeaderBytes = 17

// Block is a fixed-capacity page of points.
type Block struct {
	// ID is the block's position in its Manager.
	ID int
	// Prev and Next are the linked-list neighbours (NilBlock at the ends).
	// Pack links a run in ID order; Link and Unlink splice blocks in and out
	// of a list whatever their IDs.
	Prev, Next int
	// Inserted marks overflow blocks created by insertions. They do not
	// count towards the learned error bounds (§5) and are reached by
	// following Next pointers from the base block they were filed under.
	Inserted bool
	// capacity is the block capacity B, what HasSpace measures against.
	// A packed block reserves all of it up front. A block from Alloc, or
	// read from a snapshot, holds only the slots it has been given and
	// grows by half as much again (grow), never past B: an overflow block
	// that takes one insert holds a few slots, not B, and a stream's size
	// bounds what reading it allocates.
	capacity int32

	// pts holds the slots in use: pts[:live] are the live points, pts[live:]
	// the deleted ones.
	pts  []geom.Point
	live int
}

// Len returns the number of slots in use (including deleted slots, which
// still occupy space until an insertion reuses them).
func (b *Block) Len() int { return len(b.pts) }

// Live returns the number of non-deleted points.
func (b *Block) Live() int { return b.live }

// Slots returns the block's live points for query loops that cannot afford a
// call per point. The slice aliases the block's storage and must not be
// modified.
func (b *Block) Slots() []geom.Point { return b.pts[:b.live] }

// Points calls fn for every live point in the block.
func (b *Block) Points(fn func(geom.Point)) {
	for _, p := range b.Slots() {
		fn(p)
	}
}

// Find returns the slot of the first live point equal to p, or -1.
func (b *Block) Find(p geom.Point) int { return b.FindFrom(p, 0) }

// FindFrom returns the slot of the first live point equal to p met searching
// from slot from to the last live slot and then wrapping round to the slots
// before from, or -1: with several copies of p it may be another copy's slot
// than Find's. A from outside the live slots starts at 0.
func (b *Block) FindFrom(p geom.Point, from int) int {
	s := b.Slots()
	if from < 0 || from >= len(s) {
		from = 0
	}
	for i := from; i < len(s); i++ {
		if s[i].X == p.X && s[i].Y == p.Y {
			return i
		}
	}
	for i, q := range s[:from] {
		if q.X == p.X && q.Y == p.Y {
			return i
		}
	}
	return -1
}

// MBR returns the minimum bounding rectangle of the live points.
func (b *Block) MBR() geom.Rect {
	r := geom.EmptyRect()
	for _, p := range b.Slots() {
		r = r.ExtendPoint(p)
	}
	return r
}

// Manager owns an append-only array of blocks, counts accesses, and accounts
// for storage size. A Manager instance backs exactly one index.
type Manager struct {
	capacity int
	blocks   []*Block
	accesses atomic.Int64
}

// NewManager returns a Manager producing blocks of the given capacity.
// Capacity must be positive; the zero value selects DefaultBlockCapacity.
func NewManager(capacity int) *Manager {
	if capacity == 0 {
		capacity = DefaultBlockCapacity
	}
	if capacity < 0 {
		panic(fmt.Sprintf("store: negative block capacity %d", capacity))
	}
	return &Manager{capacity: capacity}
}

// Capacity returns the block capacity B.
func (m *Manager) Capacity() int { return m.capacity }

// NumBlocks returns the number of allocated blocks.
func (m *Manager) NumBlocks() int { return len(m.blocks) }

// Alloc creates a new empty block at the end of the block array and returns
// it. The block starts unlinked (Prev = Next = NilBlock) and with no slots:
// Append grows them as points arrive.
func (m *Manager) Alloc() *Block {
	b := &Block{}
	m.adopt(b, nil)
	return b
}

// firstSlots is the slot count a block without slots grows to first.
const firstSlots = 4

// grow returns pts with room for at least one more slot: half as much again
// as its capacity, at least firstSlots, at most capacity. A block that
// fills up holds exactly capacity slots. Growing by half rather than
// doubling leaves an overflow block at most a third of its slots empty,
// where doubling leaves up to half: inserts filed by cell run a chain's
// blocks full enough that doubling's step from 64 to 100 slots cost more
// heap than the leaves' cell tables.
func grow(pts []geom.Point, capacity int) []geom.Point {
	if len(pts) < cap(pts) {
		return pts
	}
	grown := make([]geom.Point, len(pts), min(max(cap(pts)+cap(pts)/2, firstSlots), capacity))
	copy(grown, pts)
	return grown
}

// adopt initialises b as the next block of the array over the given slot
// storage, all of it live.
func (m *Manager) adopt(b *Block, pts []geom.Point) {
	*b = Block{ID: len(m.blocks), Prev: NilBlock, Next: NilBlock, capacity: int32(m.capacity), pts: pts, live: len(pts)}
	m.blocks = append(m.blocks, b)
}

// Read returns block id and counts one block access. It returns nil for ids
// outside the allocated range, so callers can probe predicted ids safely.
func (m *Manager) Read(id int) *Block {
	if id < 0 || id >= len(m.blocks) {
		return nil
	}
	m.accesses.Add(1)
	return m.blocks[id]
}

// CountReads adds n block accesses: a query that walks blocks through Peek
// counts them itself and reports them here with one atomic add, instead of
// one per block through Read.
func (m *Manager) CountReads(n int) {
	m.accesses.Add(int64(n))
}

// Peek returns block id without counting an access. It is for structural
// maintenance (linking, MBR updates, rebuilds) that the paper does not count
// as query-time block accesses.
func (m *Manager) Peek(id int) *Block {
	if id < 0 || id >= len(m.blocks) {
		return nil
	}
	return m.blocks[id]
}

// Accesses returns the number of block reads since the last ResetAccesses.
func (m *Manager) Accesses() int64 { return m.accesses.Load() }

// ResetAccesses zeroes the access counter and returns the previous value.
func (m *Manager) ResetAccesses() int64 { return m.accesses.Swap(0) }

// SizeBytes returns the total storage footprint of all blocks: headers plus
// full capacity slots (external-memory pages are fixed size whether full or
// not). This is the paper's accounting of index size (Figs. 7 and 9), and
// TestSizeBytesGrowsWithBlocks and a snapshot round trip's Stats equality
// pin it. It is not the memory the blocks take in this process: an overflow
// block, and every block of a loaded index, holds only the slots it has
// grown to, so the heap measured after garbage collection (the benchmark's
// bytes_per_point) is the serving footprint, and it can run below this
// figure.
func (m *Manager) SizeBytes() int64 {
	return int64(len(m.blocks)) * int64(blockHeaderBytes+m.capacity*pointBytes)
}

// Append adds p to block b. It panics if the block is full: callers must
// check HasSpace first (packing and insertion logic control fullness).
func (b *Block) Append(p geom.Point) {
	if !b.HasSpace() {
		panic("store: append to full block")
	}
	if b.live == len(b.pts) {
		b.pts = append(grow(b.pts, int(b.capacity)), p)
	} else {
		b.pts[b.live] = p
	}
	b.live++
}

// HasSpace reports whether b can accept one more point, either in a fresh
// slot or by reusing a deleted slot ("If the predicted block has space for p
// (e.g., space left by a deleted point), we simply place p in the block",
// §5).
func (b *Block) HasSpace() bool {
	return b.live < int(b.capacity)
}

// Delete swaps the point at live slot i with the last live point and shrinks
// the live prefix over it, which is the paper's deletion ("we swap p with the
// last point in this block and mark p as deleted", §5). A slot that holds no
// live point is ignored. The block is never deallocated, so error bounds
// remain valid.
func (b *Block) Delete(i int) {
	if i < 0 || i >= b.live {
		return
	}
	b.live--
	b.pts[i], b.pts[b.live] = b.pts[b.live], b.pts[i]
}

// Refill replaces b's slots with a copy of pts, all of them live. The block
// keeps its storage when that has room for them, and otherwise gets exactly
// as many slots, to grow as an overflow block does. It panics if pts holds
// more than the block capacity.
func (b *Block) Refill(pts []geom.Point) {
	if len(pts) > int(b.capacity) {
		panic("store: refill past the block capacity")
	}
	if cap(b.pts) < len(pts) {
		b.pts = make([]geom.Point, len(pts))
	}
	b.pts = b.pts[:len(pts)]
	copy(b.pts, pts)
	b.live = len(pts)
}

// Release drops b's slots, live and deleted: the block holds nothing and
// keeps no storage until Append grows it again.
func (b *Block) Release() {
	b.pts, b.live = nil, 0
}

// Link splices block nb into the list directly after block b. Both blocks
// must belong to m.
func (m *Manager) Link(b, nb *Block) {
	nb.Next = b.Next
	nb.Prev = b.ID
	if b.Next != NilBlock {
		m.blocks[b.Next].Prev = nb.ID
	}
	b.Next = nb.ID
}

// Unlink takes block b out of the list, joining its neighbours, and leaves
// it unlinked. b must belong to m.
func (m *Manager) Unlink(b *Block) {
	if b.Prev != NilBlock {
		m.blocks[b.Prev].Next = b.Next
	}
	if b.Next != NilBlock {
		m.blocks[b.Next].Prev = b.Prev
	}
	b.Prev, b.Next = NilBlock, NilBlock
}

// Pack distributes pts into consecutive new blocks of at most Capacity points
// each, in slice order, linking them into a list. It returns the id of the
// first block created, and the number of blocks. Packing an empty slice
// still allocates one empty block so every leaf owns at least one block.
//
// The run's blocks share one contiguous slot array (and one header array),
// each block owning a full-capacity stretch of it, so a scan over
// consecutive base blocks reads memory front to back instead of chasing a
// pointer per block. Blocks from Alloc stay separately allocated.
func (m *Manager) Pack(pts []geom.Point) (first, count int) {
	first = len(m.blocks)
	count = (len(pts) + m.capacity - 1) / m.capacity
	if count == 0 {
		count = 1
	}
	headers := make([]Block, count)
	slots := make([]geom.Point, count*m.capacity)
	for i := range headers {
		lo, hi := i*m.capacity, (i+1)*m.capacity
		n := copy(slots[lo:hi], pts[min(lo, len(pts)):])
		b := &headers[i]
		m.adopt(b, slots[lo:lo+n:hi])
		if i > 0 {
			b.Prev = b.ID - 1
			headers[i-1].Next = b.ID
		}
	}
	return first, count
}
