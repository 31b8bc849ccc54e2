// Package sfc implements the two space-filling curves used by the paper: the
// Z-curve (Morton order) and the Hilbert curve. Both map a cell (x, y) of a
// 2^order × 2^order grid to a curve value in [0, 4^order) and back.
//
// The paper orders points by their curve value in rank space (RSMI, HRR) or in
// a fixed coordinate grid (ZM baseline). Curve choice matters for window
// queries: a Z-curve's minimum and maximum curve values inside a query window
// are attained at the window's bottom-left and top-right corners, while for a
// Hilbert curve they lie somewhere on the boundary (§4.2).
package sfc

import "fmt"

// MaxOrder is the largest supported curve order. With order 31 the curve value
// of a cell occupies up to 62 bits, which still fits a uint64.
const MaxOrder = 31

// Kind identifies a space-filling curve family.
type Kind int

const (
	// Hilbert is the Hilbert curve, the paper's default for RSMI ("RSMI uses
	// Hilbert-curves for ordering as these yield better query performance
	// than Z-curves", §6.1).
	Hilbert Kind = iota
	// Z is the Z-curve (Morton order), used by the ZM baseline and available
	// as an RSMI ablation.
	Z
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Hilbert:
		return "hilbert"
	case Z:
		return "z"
	default:
		return fmt.Sprintf("sfc.Kind(%d)", int(k))
	}
}

// Curve computes curve values for cells of a 2^order × 2^order grid.
type Curve struct {
	kind  Kind
	order uint
}

// New returns a curve of the given kind and order. It panics if order is 0 or
// exceeds MaxOrder: curve construction happens at index-build time with
// program-controlled orders, so a bad order is a programming error.
func New(kind Kind, order uint) Curve {
	if order == 0 || order > MaxOrder {
		panic(fmt.Sprintf("sfc: order %d out of range [1, %d]", order, MaxOrder))
	}
	return Curve{kind: kind, order: order}
}

// Kind returns the curve family.
func (c Curve) Kind() Kind { return c.kind }

// Order returns the curve order.
func (c Curve) Order() uint { return c.order }

// Side returns the grid side length 2^order.
func (c Curve) Side() uint32 { return uint32(1) << c.order }

// NumCells returns the total number of cells 4^order.
func (c Curve) NumCells() uint64 { return uint64(1) << (2 * c.order) }

// Value returns the curve value of cell (x, y). Coordinates outside the grid
// are clamped to the grid boundary; callers pass ranks which are in range by
// construction, but model-predicted cells can stray.
func (c Curve) Value(x, y uint32) uint64 {
	if max := c.Side() - 1; x > max || y > max {
		if x > max {
			x = max
		}
		if y > max {
			y = max
		}
	}
	if c.kind == Z {
		return ZValue(x, y)
	}
	return hilbertValue(c.order, x, y)
}

// Decode returns the cell (x, y) with the given curve value. Values outside
// [0, NumCells) are clamped.
func (c Curve) Decode(v uint64) (x, y uint32) {
	if n := c.NumCells(); v >= n {
		v = n - 1
	}
	if c.kind == Z {
		return ZDecode(v)
	}
	return hilbertDecode(c.order, v)
}

// OrderFor returns the smallest curve order whose grid has at least n cells
// per side, i.e. ceil(log2(n)) clamped to [1, MaxOrder]. It is used to size a
// rank-space curve for n distinct ranks.
func OrderFor(n int) uint {
	order := uint(1)
	for (uint64(1) << order) < uint64(n) {
		order++
		if order == MaxOrder {
			break
		}
	}
	return order
}

// ZValue interleaves the bits of x and y (x in the even positions, y in the
// odd ones), producing the Morton code of the cell. This matches the paper's
// description of mapping a point to its Z-value "by interleaving the bits of
// its coordinates" (§2).
func ZValue(x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

// ZDecode inverts ZValue.
func ZDecode(v uint64) (x, y uint32) {
	return compact(v), compact(v >> 1)
}

// spread inserts a zero bit between each bit of v: abcd -> 0a0b0c0d.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact removes the zero bit between each bit: 0a0b0c0d -> abcd.
func compact(v uint64) uint32 {
	x := v & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

// The Hilbert curve is a four-state machine over the levels of a cell's
// coordinates, most significant first. A state is how the current
// sub-square is oriented relative to the whole grid: bit 0 says it is
// transposed (x and y swap roles), bit 1 that it is mirrored through its
// centre (every remaining bit of x and y inverts). The two commute, so the
// state after a level is the state before it XOR that level's own turn.
// hilbertLevel is one level; hilbertEnc and hilbertDec are four levels at a
// time, built from it at start-up, so that a value at order 20 costs five
// table reads instead of twenty data-dependent branches.
const hilbertLevels = 4

// hilbertEnc[state<<8 | x4<<4 | y4] is d8<<2 | next: d8 the curve's 8 bits
// for four levels whose x bits are x4 and y bits y4, entered in state; next
// the state the levels below them start in. hilbertDec[state<<8 | d8] is
// (x4<<4 | y4)<<2 | next, its inverse.
var hilbertEnc, hilbertDec [4 << 8]uint16

func init() {
	for st := 0; st < 4; st++ {
		for xy := 0; xy < 1<<8; xy++ {
			s, d := st, 0
			for b := hilbertLevels - 1; b >= 0; b-- {
				var q int
				q, s = hilbertLevel(s, xy>>(4+b)&1, xy>>b&1)
				d = d<<2 | q
			}
			hilbertEnc[st<<8|xy] = uint16(d<<2 | s)
			hilbertDec[st<<8|d] = uint16(xy<<2 | s)
		}
	}
}

// hilbertLevel is one level of the curve (Hamilton's / Wikipedia's xy2d
// step): entered in state st, the quadrant with bits (rx, ry) is visited
// q-th of four, and the levels below it are in state next.
func hilbertLevel(st, rx, ry int) (q, next int) {
	if st&2 != 0 {
		rx, ry = rx^1, ry^1
	}
	if st&1 != 0 {
		rx, ry = ry, rx
	}
	if ry == 0 {
		st ^= 1 | rx<<1
	}
	return 3*rx ^ ry, st
}

// hilbertTop returns the number of levels hilbertValue and hilbertDecode
// walk — order rounded up to whole table steps — and the state they start
// in. A padding level above the curve's own has x and y bits 0: the curve
// visits that quadrant first (q = 0, so d is unchanged) and transposes what
// lies below it. Starting transposed once per padding level, mod 2, leaves
// the curve's own top level in the identity state.
func hilbertTop(order uint) (levels uint, st int) {
	pad := (hilbertLevels - order%hilbertLevels) % hilbertLevels
	return order + pad, int(pad & 1)
}

// hilbertValue converts cell coordinates to the Hilbert curve value ("d"),
// four levels per table read.
func hilbertValue(order uint, x, y uint32) uint64 {
	levels, st := hilbertTop(order)
	var d uint64
	for shift := int(levels) - hilbertLevels; shift >= 0; shift -= hilbertLevels {
		e := hilbertEnc[st<<8|int(x>>shift&15)<<4|int(y>>shift&15)]
		d = d<<8 | uint64(e>>2)
		st = int(e & 3)
	}
	return d
}

// hilbertDecode converts a Hilbert curve value back to cell coordinates
// (d2xy), four levels per table read.
func hilbertDecode(order uint, d uint64) (x, y uint32) {
	levels, st := hilbertTop(order)
	for shift := 2*int(levels) - 2*hilbertLevels; shift >= 0; shift -= 2 * hilbertLevels {
		e := hilbertDec[st<<8|int(d>>shift&255)]
		x = x<<4 | uint32(e>>6)
		y = y<<4 | uint32(e>>2&15)
		st = int(e & 3)
	}
	return x, y
}
