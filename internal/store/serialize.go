package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rsmi/internal/geom"
)

// maxCapacity is the largest block capacity ReadManager accepts.
const maxCapacity = 1 << 20

// blockHeader is the length of a block's record before its points: its
// Prev and Next links, its flags byte and its live count.
const blockHeader = 8 + 8 + 1 + 8

// WriteTo serialises the manager's blocks: their count, then each block's
// Prev and Next links, its flags (bit 0: Inserted), its live count and its
// live points. The block capacity is not written: the index that owns the
// manager stores it, and ReadManager takes it back from there. It
// implements io.WriterTo.
func (m *Manager) WriteTo(w io.Writer) (int64, error) {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, blockHeader+16*m.capacity), uint64(len(m.blocks)))
	var written int64
	flush := func() error {
		n, err := w.Write(buf)
		written, buf = written+int64(n), buf[:0]
		if err != nil {
			return fmt.Errorf("store: write blocks: %w", err)
		}
		return nil
	}
	for _, b := range m.blocks {
		if err := flush(); err != nil {
			return written, err
		}
		flags := uint8(0)
		if b.Inserted {
			flags = 1
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Prev))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.Next))
		buf = binary.LittleEndian.AppendUint64(append(buf, flags), uint64(b.live))
		for _, p := range b.Slots() {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		}
	}
	return written, flush()
}

// ReadManager deserialises a manager written by WriteTo, of blocks of the
// given capacity. A block that claims more live points than the capacity is
// refused before any of them is read, and the points of the others grow as
// they are read, never ahead of the stream.
func ReadManager(r io.Reader, capacity int) (*Manager, error) {
	var count int64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("store: read block count: %w", err)
	}
	const maxBlocks = 1 << 32
	if capacity <= 0 || capacity > maxCapacity || count < 0 || count > maxBlocks {
		return nil, fmt.Errorf("store: implausible layout cap=%d blocks=%d", capacity, count)
	}
	m := NewManager(capacity)
	var head [blockHeader]byte
	var xy [16]byte
	for id := int64(0); id < count; id++ {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return nil, fmt.Errorf("store: read block %d: %w", id, err)
		}
		live := binary.LittleEndian.Uint64(head[17:])
		if live > uint64(capacity) {
			return nil, fmt.Errorf("store: block %d holds %d points (cap %d)", id, live, capacity)
		}
		var pts []geom.Point
		for range live {
			if _, err := io.ReadFull(r, xy[:]); err != nil {
				return nil, fmt.Errorf("store: read block %d: %w", id, err)
			}
			pts = append(grow(pts, capacity), geom.Pt(
				math.Float64frombits(binary.LittleEndian.Uint64(xy[:])),
				math.Float64frombits(binary.LittleEndian.Uint64(xy[8:]))))
		}
		b := &Block{}
		m.adopt(b, pts)
		b.Prev = int(int64(binary.LittleEndian.Uint64(head[:])))
		b.Next = int(int64(binary.LittleEndian.Uint64(head[8:])))
		b.Inserted = head[16]&1 != 0
	}
	return m, nil
}
