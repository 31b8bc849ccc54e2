package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rsmi/internal/geom"
)

// WriteTo serialises the manager's capacity and every block, slot by slot
// with a deleted flag each, dead tail included. Error bounds depend on which
// block a point is in, never on its slot, so the layout inside a block is
// free; writing every slot keeps the format what it has always been, and a
// written manager reads back to one that writes the same bytes. It implements
// io.WriterTo.
func (m *Manager) WriteTo(w io.Writer) (int64, error) {
	var written int64
	put := func(v interface{}) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		written += int64(binary.Size(v))
		return nil
	}
	if err := put(int64(m.capacity)); err != nil {
		return written, fmt.Errorf("store: write capacity: %w", err)
	}
	if err := put(int64(len(m.blocks))); err != nil {
		return written, fmt.Errorf("store: write block count: %w", err)
	}
	for _, b := range m.blocks {
		flags := uint8(0)
		if b.Inserted {
			flags = 1
		}
		if err := put(int64(b.Prev)); err != nil {
			return written, err
		}
		if err := put(int64(b.Next)); err != nil {
			return written, err
		}
		if err := put(flags); err != nil {
			return written, err
		}
		if err := put(int64(len(b.pts))); err != nil {
			return written, err
		}
		for i, p := range b.pts {
			del := uint8(0)
			if i >= b.live {
				del = 1
			}
			if err := put(math.Float64bits(p.X)); err != nil {
				return written, err
			}
			if err := put(math.Float64bits(p.Y)); err != nil {
				return written, err
			}
			if err := put(del); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// ReadManager deserialises a manager written by WriteTo. A stream whose
// deleted slots are not the tail of their block (nothing here writes one) is
// compacted: the live points keep their order and move to the front.
func ReadManager(r io.Reader) (*Manager, error) {
	var capacity, count int64
	if err := binary.Read(r, binary.LittleEndian, &capacity); err != nil {
		return nil, fmt.Errorf("store: read capacity: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("store: read block count: %w", err)
	}
	const maxBlocks = 1 << 32
	if capacity <= 0 || capacity > 1<<20 || count < 0 || count > maxBlocks {
		return nil, fmt.Errorf("store: implausible layout cap=%d blocks=%d", capacity, count)
	}
	m := NewManager(int(capacity))
	for id := int64(0); id < count; id++ {
		var prev, next, slots int64
		var flags uint8
		if err := binary.Read(r, binary.LittleEndian, &prev); err != nil {
			return nil, fmt.Errorf("store: read block %d: %w", id, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &next); err != nil {
			return nil, fmt.Errorf("store: read block %d: %w", id, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &flags); err != nil {
			return nil, fmt.Errorf("store: read block %d: %w", id, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &slots); err != nil {
			return nil, fmt.Errorf("store: read block %d: %w", id, err)
		}
		if slots < 0 || slots > capacity {
			return nil, fmt.Errorf("store: block %d has %d slots (cap %d)", id, slots, capacity)
		}
		// The slots grow as they are read, never ahead of the stream.
		var pts []geom.Point
		live := 0
		for s := int64(0); s < slots; s++ {
			var xb, yb uint64
			var del uint8
			if err := binary.Read(r, binary.LittleEndian, &xb); err != nil {
				return nil, fmt.Errorf("store: read slot: %w", err)
			}
			if err := binary.Read(r, binary.LittleEndian, &yb); err != nil {
				return nil, fmt.Errorf("store: read slot: %w", err)
			}
			if err := binary.Read(r, binary.LittleEndian, &del); err != nil {
				return nil, fmt.Errorf("store: read slot: %w", err)
			}
			pts = append(grow(pts, int(capacity)), geom.Pt(math.Float64frombits(xb), math.Float64frombits(yb)))
			if del&1 == 0 {
				pts[live], pts[s] = pts[s], pts[live]
				live++
			}
		}
		b := &Block{}
		m.adopt(b, pts)
		b.Prev, b.Next = int(prev), int(next)
		b.Inserted = flags&1 != 0
		b.live = live
	}
	return m, nil
}
