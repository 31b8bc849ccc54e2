package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rsmi/internal/geom"
)

func TestNewManagerDefaults(t *testing.T) {
	m := NewManager(0)
	if m.Capacity() != DefaultBlockCapacity {
		t.Errorf("default capacity = %d, want %d", m.Capacity(), DefaultBlockCapacity)
	}
	m = NewManager(10)
	if m.Capacity() != 10 {
		t.Errorf("capacity = %d, want 10", m.Capacity())
	}
}

func TestNewManagerPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative capacity")
		}
	}()
	NewManager(-1)
}

func TestAllocAssignsSequentialIDs(t *testing.T) {
	m := NewManager(4)
	for i := 0; i < 5; i++ {
		b := m.Alloc()
		if b.ID != i {
			t.Errorf("block %d got ID %d", i, b.ID)
		}
		if b.Prev != NilBlock || b.Next != NilBlock {
			t.Errorf("new block must be unlinked, got prev=%d next=%d", b.Prev, b.Next)
		}
	}
	if m.NumBlocks() != 5 {
		t.Errorf("NumBlocks = %d, want 5", m.NumBlocks())
	}
}

func TestReadCountsAccessesPeekDoesNot(t *testing.T) {
	m := NewManager(4)
	m.Alloc()
	m.Alloc()
	if m.Accesses() != 0 {
		t.Fatal("fresh manager must have zero accesses")
	}
	m.Read(0)
	m.Read(1)
	m.Read(1)
	if got := m.Accesses(); got != 3 {
		t.Errorf("Accesses = %d, want 3", got)
	}
	m.Peek(0)
	if got := m.Accesses(); got != 3 {
		t.Errorf("Peek must not count: Accesses = %d, want 3", got)
	}
	if prev := m.ResetAccesses(); prev != 3 {
		t.Errorf("ResetAccesses returned %d, want 3", prev)
	}
	if m.Accesses() != 0 {
		t.Error("accesses not reset")
	}
}

func TestReadOutOfRangeReturnsNilWithoutCounting(t *testing.T) {
	m := NewManager(4)
	m.Alloc()
	if m.Read(-1) != nil || m.Read(5) != nil {
		t.Error("out-of-range Read must return nil")
	}
	if m.Accesses() != 0 {
		t.Errorf("out-of-range Read must not count, got %d", m.Accesses())
	}
}

func TestAppendAndFull(t *testing.T) {
	m := NewManager(3)
	b := m.Alloc()
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)}
	for _, p := range pts {
		if !b.HasSpace() {
			t.Fatal("block should have space")
		}
		b.Append(p)
	}
	if b.HasSpace() {
		t.Error("full block reports space")
	}
	if b.Live() != 3 || b.Len() != 3 {
		t.Errorf("Live/Len = %d/%d, want 3/3", b.Live(), b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Append to full block must panic")
		}
	}()
	b.Append(geom.Pt(4, 4))
}

func TestDeleteAndSlotReuse(t *testing.T) {
	m := NewManager(3)
	b := m.Alloc()
	b.Append(geom.Pt(1, 1))
	b.Append(geom.Pt(2, 2))
	b.Append(geom.Pt(3, 3))

	i := b.Find(geom.Pt(2, 2))
	if i < 0 {
		t.Fatal("Find failed")
	}
	b.Delete(i)
	if b.Live() != 2 {
		t.Errorf("Live = %d, want 2", b.Live())
	}
	if b.Find(geom.Pt(2, 2)) != -1 {
		t.Error("deleted point still findable")
	}
	// FindFrom wraps round to the slots before from, and a from outside the
	// live slots starts at 0.
	for _, c := range []struct {
		p    geom.Point
		from int
		want int
	}{
		{geom.Pt(1, 1), 1, 0}, {geom.Pt(3, 3), 1, 1}, {geom.Pt(1, 1), -1, 0},
		{geom.Pt(3, 3), 2, 1}, {geom.Pt(3, 3), 99, 1}, {geom.Pt(2, 2), 1, -1},
	} {
		if got := b.FindFrom(c.p, c.from); got != c.want {
			t.Errorf("FindFrom(%v, %d) = %d, want %d", c.p, c.from, got, c.want)
		}
	}
	// Deletion must swap with the last live point so live points stay packed
	// in the prefix.
	if live := b.Slots(); len(live) != 2 || live[i] != geom.Pt(3, 3) {
		t.Errorf("live points after delete = %v, want (3,3) in slot %d", live, i)
	}
	if !b.HasSpace() {
		t.Error("block with deleted slot must have space")
	}
	b.Append(geom.Pt(4, 4))
	if b.Live() != 3 {
		t.Errorf("Live after reuse = %d, want 3", b.Live())
	}
	if b.Find(geom.Pt(4, 4)) == -1 {
		t.Error("reinserted point not findable")
	}
}

func TestDeleteIgnoresInvalidSlots(t *testing.T) {
	m := NewManager(2)
	b := m.Alloc()
	b.Append(geom.Pt(1, 1))
	b.Delete(-1)
	b.Delete(5)
	if b.Live() != 1 {
		t.Error("invalid Delete changed live count")
	}
	b.Delete(0)
	b.Delete(0) // double delete is a no-op
	if b.Live() != 0 {
		t.Error("double delete corrupted live count")
	}
}

func TestPointsIteratesLiveOnly(t *testing.T) {
	m := NewManager(4)
	b := m.Alloc()
	b.Append(geom.Pt(1, 1))
	b.Append(geom.Pt(2, 2))
	b.Append(geom.Pt(3, 3))
	b.Delete(b.Find(geom.Pt(1, 1)))
	var got []geom.Point
	b.Points(func(p geom.Point) { got = append(got, p) })
	if len(got) != 2 {
		t.Fatalf("Points visited %d, want 2", len(got))
	}
	for _, p := range got {
		if p == (geom.Pt(1, 1)) {
			t.Error("visited deleted point")
		}
	}
}

func TestMBR(t *testing.T) {
	m := NewManager(4)
	b := m.Alloc()
	if !b.MBR().IsEmpty() {
		t.Error("empty block MBR must be empty")
	}
	b.Append(geom.Pt(1, 5))
	b.Append(geom.Pt(3, 2))
	want := geom.Rect{MinX: 1, MinY: 2, MaxX: 3, MaxY: 5}
	if got := b.MBR(); got != want {
		t.Errorf("MBR = %v, want %v", got, want)
	}
	b.Delete(b.Find(geom.Pt(1, 5)))
	want = geom.Rect{MinX: 3, MinY: 2, MaxX: 3, MaxY: 2}
	if got := b.MBR(); got != want {
		t.Errorf("MBR after delete = %v, want %v", got, want)
	}
}

func TestPackLinksAndOrders(t *testing.T) {
	m := NewManager(2)
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0), geom.Pt(4, 0), geom.Pt(5, 0)}
	first, count := m.Pack(pts)
	if first != 0 || count != 3 {
		t.Fatalf("Pack = (%d,%d), want (0,3)", first, count)
	}
	// Walk the chain and collect points in order.
	var got []geom.Point
	for id := first; id != NilBlock; {
		b := m.Peek(id)
		b.Points(func(p geom.Point) { got = append(got, p) })
		id = b.Next
	}
	if len(got) != len(pts) {
		t.Fatalf("chain yielded %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Errorf("chain order broken at %d: %v != %v", i, got[i], pts[i])
		}
	}
	// Prev pointers mirror Next pointers.
	for id := 0; id < m.NumBlocks(); id++ {
		b := m.Peek(id)
		if b.Next != NilBlock && m.Peek(b.Next).Prev != id {
			t.Errorf("block %d: next %d does not point back", id, b.Next)
		}
	}
}

func TestPackEmptyAllocatesOneBlock(t *testing.T) {
	m := NewManager(4)
	first, count := m.Pack(nil)
	if first != 0 || count != 1 {
		t.Errorf("Pack(nil) = (%d,%d), want (0,1)", first, count)
	}
	if m.Peek(0).Live() != 0 {
		t.Error("empty pack block must be empty")
	}
}

// Property: packing n points into capacity-c blocks produces ceil(n/c) blocks
// and preserves multiset and order.
func TestPackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(16)
		n := rng.Intn(500)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64(), rng.Float64())
		}
		m := NewManager(c)
		first, count := m.Pack(pts)
		wantBlocks := (n + c - 1) / c
		if wantBlocks == 0 {
			wantBlocks = 1
		}
		if count != wantBlocks {
			return false
		}
		var got []geom.Point
		for id := first; id != NilBlock; {
			b := m.Peek(id)
			b.Points(func(p geom.Point) { got = append(got, p) })
			id = b.Next
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != pts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLinkSplicesInsertedBlock(t *testing.T) {
	m := NewManager(2)
	first, _ := m.Pack([]geom.Point{geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)})
	b0 := m.Peek(first)
	ov := m.Alloc()
	ov.Inserted = true
	ov.Append(geom.Pt(9, 9))
	m.Link(b0, ov)

	if b0.Next != ov.ID || ov.Prev != b0.ID {
		t.Error("Link did not splice forward pointers")
	}
	// The original successor is still reachable after the overflow block.
	if next := m.Peek(ov.Next); next == nil || next.Inserted {
		t.Error("base successor lost after splice")
	}
}

// TestRefillAndRelease: Refill makes a block hold exactly the points it is
// given, all live, in place when its storage has room and in storage of
// their number when it has not; Release leaves it holding nothing, and
// Append grows it again from there.
func TestRefillAndRelease(t *testing.T) {
	m := NewManager(4)
	first, _ := m.Pack([]geom.Point{geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)})
	packed := m.Peek(first)
	packed.Delete(0)
	packed.Refill([]geom.Point{geom.Pt(5, 5), geom.Pt(6, 6)})
	if got := packed.Slots(); packed.Len() != 2 || !slices.Equal(got, []geom.Point{geom.Pt(5, 5), geom.Pt(6, 6)}) {
		t.Fatalf("refilled packed block holds %v in %d slots", got, packed.Len())
	}
	ov := m.Alloc()
	ov.Append(geom.Pt(9, 9))
	full := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3), geom.Pt(4, 4)}
	ov.Refill(full)
	full[0] = geom.Pt(0, 0) // the block holds a copy
	if ov.Live() != 4 || ov.HasSpace() || ov.Slots()[0] != geom.Pt(1, 1) {
		t.Fatalf("refilled overflow block holds %v", ov.Slots())
	}
	ov.Release()
	if ov.Len() != 0 || ov.Live() != 0 || !ov.HasSpace() {
		t.Fatalf("released block holds %d slots, %d live", ov.Len(), ov.Live())
	}
	ov.Append(geom.Pt(7, 7))
	if ov.Live() != 1 || ov.Slots()[0] != geom.Pt(7, 7) {
		t.Fatalf("append after release holds %v", ov.Slots())
	}
	defer func() {
		if recover() == nil {
			t.Error("refill past the capacity did not panic")
		}
	}()
	ov.Refill(append(full, geom.Pt(5, 5)))
}

func TestSizeBytesGrowsWithBlocks(t *testing.T) {
	m := NewManager(100)
	if m.SizeBytes() != 0 {
		t.Error("empty manager must have zero size")
	}
	m.Alloc()
	one := m.SizeBytes()
	if one <= 0 {
		t.Error("size must be positive after alloc")
	}
	m.Alloc()
	if m.SizeBytes() != 2*one {
		t.Errorf("size not linear in blocks: %d vs 2*%d", m.SizeBytes(), one)
	}
	// Fixed-size pages: appending points must not change the footprint.
	b := m.Peek(0)
	b.Append(geom.Pt(1, 1))
	if m.SizeBytes() != 2*one {
		t.Error("append changed page footprint")
	}
}

// TestBlockAgainstModel drives random Append/Delete sequences against a plain
// slice of the points that should be live, in slot order: the live points
// stay a prefix of the slots in exactly the order §5's swap-with-last gives,
// and Len, Live, HasSpace, Find, MBR, Points and Slots all agree with it.
// Every so often the manager is written, read back and written again: the
// copy must answer the same and write the same bytes.
func TestBlockAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		capacity := 1 + rng.Intn(12)
		m := NewManager(capacity)
		b := m.Alloc()
		var model []geom.Point
		slots := 0 // high-water mark: slots in use never shrink
		check := func(b *Block) {
			t.Helper()
			if b.Live() != len(model) || b.Len() != slots || b.HasSpace() != (len(model) < capacity) {
				t.Fatalf("Live/Len/HasSpace = %d/%d/%v, model has %d live of %d slots (capacity %d)",
					b.Live(), b.Len(), b.HasSpace(), len(model), slots, capacity)
			}
			var visited []geom.Point
			b.Points(func(p geom.Point) { visited = append(visited, p) })
			if !slices.Equal(b.Slots(), model) || !slices.Equal(visited, model) {
				t.Fatalf("live points %v (Points: %v), model %v", b.Slots(), visited, model)
			}
			want := geom.EmptyRect()
			for i, p := range model {
				want = want.ExtendPoint(p)
				if got := b.Find(p); got != slices.Index(model, p) {
					t.Fatalf("Find(%v) = %d, model has it first in slot %d (asked for slot %d)", p, got, slices.Index(model, p), i)
				}
				for from := -1; from <= len(model); from++ {
					start := max(from, 0)
					if from >= len(model) {
						start = 0
					}
					want := slices.Index(model[start:], p)
					if want >= 0 {
						want += start
					} else {
						want = slices.Index(model[:start], p)
					}
					if got := b.FindFrom(p, from); got != want {
						t.Fatalf("FindFrom(%v, %d) = %d, model has it first from there in slot %d", p, from, got, want)
					}
				}
			}
			if got := b.MBR(); got != want {
				t.Fatalf("MBR = %v, model %v", got, want)
			}
			if b.Find(geom.Pt(-1, -1)) != -1 {
				t.Fatal("Find of an absent point succeeded")
			}
		}
		for op := 0; op < 200; op++ {
			switch {
			case rng.Intn(2) == 0 && b.HasSpace():
				p := geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6))) // few values: duplicates
				b.Append(p)
				model = append(model, p)
				slots = max(slots, len(model))
			case len(model) > 0:
				i := rng.Intn(len(model))
				if gone := model[i]; rng.Intn(2) == 0 {
					i = b.Find(gone) // the way core deletes: whichever copy comes first
				}
				b.Delete(i)
				last := len(model) - 1
				model[i] = model[last]
				model = model[:last]
				b.Delete(len(model)) // the slot just vacated holds no live point
				b.Delete(slots)
			}
			check(b)
			if op%25 == 0 {
				var first, second bytes.Buffer
				if _, err := m.WriteTo(&first); err != nil {
					t.Fatal(err)
				}
				loaded, err := ReadManager(bytes.NewReader(first.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := loaded.WriteTo(&second); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatal("WriteTo → ReadManager → WriteTo changed the bytes")
				}
				check(loaded.Peek(0))
			}
		}
	}
}

// TestReadManagerCompactsDeadSlots hand-builds the one stream WriteTo never
// writes — a dead slot between live ones — and expects it to load with the
// live points in front, in stream order, answering as the stream meant.
func TestReadManagerCompactsDeadSlots(t *testing.T) {
	var stream bytes.Buffer
	put := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(&stream, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(int64(4), int64(1))                                   // capacity, blocks
	put(int64(NilBlock), int64(NilBlock), uint8(0), int64(4)) // prev, next, flags, slots
	for i, dead := range []uint8{0, 1, 1, 0} {
		put(math.Float64bits(float64(i)), math.Float64bits(float64(10*i)), dead)
	}
	m, err := ReadManager(&stream)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Peek(0)
	if want := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 30)}; !slices.Equal(b.Slots(), want) || b.Len() != 4 {
		t.Fatalf("loaded live points %v in %d slots, want %v in 4", b.Slots(), b.Len(), want)
	}
	if b.Find(geom.Pt(3, 30)) != 1 || b.Find(geom.Pt(1, 10)) != -1 || b.Find(geom.Pt(2, 20)) != -1 {
		t.Error("Find disagrees with the stream's deleted flags")
	}
	if got, want := b.MBR(), (geom.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 30}); got != want {
		t.Errorf("MBR = %v, want %v", got, want)
	}
	if !b.HasSpace() {
		t.Fatal("a block with two dead slots reports no space")
	}
	b.Append(geom.Pt(7, 7))
	b.Append(geom.Pt(8, 8))
	if b.HasSpace() || b.Live() != 4 || b.Len() != 4 {
		t.Errorf("after refilling the dead slots: Live/Len = %d/%d, HasSpace %v", b.Live(), b.Len(), b.HasSpace())
	}
}

// TestGrownBlockMatchesFullSlots drives a block from Alloc, which starts
// with no slots and grows them, and a block over a full-capacity slot array,
// as Pack lays them out, through the same appends, deletes and slot reuse.
// Every slot, the dead tail a snapshot writes included, must be equal after
// every step; the grown block's slots never exceed the capacity, and a full
// block holds exactly capacity slots.
func TestGrownBlockMatchesFullSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, capacity := range []int{1, 3, 7, 100} {
		m := NewManager(capacity)
		grown := m.Alloc()
		full := &Block{}
		m.adopt(full, make([]geom.Point, 0, capacity))
		wasFull := false
		for op := 0; op < 40*capacity; op++ {
			if rng.Intn(3) > 0 && grown.HasSpace() {
				p := geom.Pt(rng.Float64(), float64(op))
				grown.Append(p)
				full.Append(p)
			} else if grown.Live() > 0 {
				i := rng.Intn(grown.Live())
				grown.Delete(i)
				full.Delete(i)
			}
			if !slices.Equal(grown.pts, full.pts) || grown.Live() != full.Live() {
				t.Fatalf("capacity %d, op %d: grown block holds %v (%d live), full-slot block %v (%d live)",
					capacity, op, grown.pts, grown.Live(), full.pts, full.Live())
			}
			if cap(grown.pts) > capacity {
				t.Fatalf("capacity %d, op %d: the grown block has %d slots", capacity, op, cap(grown.pts))
			}
			if !grown.HasSpace() {
				wasFull = true
				if cap(grown.pts) != capacity {
					t.Fatalf("capacity %d: a full block has %d slots", capacity, cap(grown.pts))
				}
			}
		}
		if !wasFull {
			t.Fatalf("capacity %d: the block never filled up", capacity)
		}
	}
}
