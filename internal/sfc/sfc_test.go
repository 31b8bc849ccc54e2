package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZValueKnown(t *testing.T) {
	// Hand-checked interleavings.
	tests := []struct {
		x, y uint32
		want uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 0, 4},
		{2, 3, 14},
		{3, 3, 15},
		{7, 7, 63},
		{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF},
	}
	for _, tc := range tests {
		if got := ZValue(tc.x, tc.y); got != tc.want {
			t.Errorf("ZValue(%d,%d) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

func TestZRoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		gx, gy := ZDecode(ZValue(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The paper's Fig. 2 example: on an 8x8-ish grid, points with given
// coordinates have the shown Z-values. p3 at (2,1) has Z-value 6.
func TestZValuePaperFigure2(t *testing.T) {
	if got := ZValue(2, 1); got != 6 {
		t.Errorf("ZValue(2,1) = %d, want 6 (paper Fig. 2, p3)", got)
	}
}

func TestHilbertKnownOrder1(t *testing.T) {
	// Order-1 Hilbert curve visits (0,0),(0,1),(1,1),(1,0).
	c := New(Hilbert, 1)
	wantOrder := [][2]uint32{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for d, cell := range wantOrder {
		if got := c.Value(cell[0], cell[1]); got != uint64(d) {
			t.Errorf("Hilbert order-1 Value(%d,%d) = %d, want %d", cell[0], cell[1], got, d)
		}
		gx, gy := c.Decode(uint64(d))
		if gx != cell[0] || gy != cell[1] {
			t.Errorf("Hilbert order-1 Decode(%d) = (%d,%d), want (%d,%d)", d, gx, gy, cell[0], cell[1])
		}
	}
}

func TestHilbertRoundTripAllOrders(t *testing.T) {
	for _, order := range []uint{1, 2, 3, 4, 5, 6} {
		c := New(Hilbert, order)
		side := c.Side()
		seen := make(map[uint64]bool, int(side)*int(side))
		for x := uint32(0); x < side; x++ {
			for y := uint32(0); y < side; y++ {
				v := c.Value(x, y)
				if v >= c.NumCells() {
					t.Fatalf("order %d: Value(%d,%d) = %d out of range", order, x, y, v)
				}
				if seen[v] {
					t.Fatalf("order %d: duplicate curve value %d", order, v)
				}
				seen[v] = true
				gx, gy := c.Decode(v)
				if gx != x || gy != y {
					t.Fatalf("order %d: Decode(Value(%d,%d)) = (%d,%d)", order, x, y, gx, gy)
				}
			}
		}
		if len(seen) != int(c.NumCells()) {
			t.Fatalf("order %d: bijection covers %d of %d cells", order, len(seen), c.NumCells())
		}
	}
}

// Adjacent curve values must map to adjacent grid cells (Manhattan distance
// 1): the defining continuity property of the Hilbert curve, and the reason
// it clusters better than the Z-curve.
func TestHilbertContinuity(t *testing.T) {
	for _, order := range []uint{1, 2, 3, 4, 5} {
		c := New(Hilbert, order)
		px, py := c.Decode(0)
		for d := uint64(1); d < c.NumCells(); d++ {
			x, y := c.Decode(d)
			dist := absDiff(x, px) + absDiff(y, py)
			if dist != 1 {
				t.Fatalf("order %d: cells for d=%d..%d are distance %d apart", order, d-1, d, dist)
			}
			px, py = x, y
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// bitLoopValue and bitLoopDecode are the per-level conversions the tables
// replaced (Hamilton's / Wikipedia's xy2d and d2xy): one branchy step per
// level, kept as the reference the tables must reproduce.
func bitLoopValue(order uint, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = bitLoopRotate(s, x, y, rx, ry)
	}
	return d
}

func bitLoopDecode(order uint, d uint64) (x, y uint32) {
	t := d
	for s := uint64(1); s < uint64(1)<<order; s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = bitLoopRotate(uint32(s), x, y, rx, ry)
		x += uint32(s) * rx
		y += uint32(s) * ry
		t /= 4
	}
	return x, y
}

func bitLoopRotate(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// TestHilbertTableMatchesBitLoop: the table-driven conversions give the
// per-level reference's answer on every cell of orders 1–8 (each remainder
// of order mod 4, so each padding of the top table step), and on random
// cells and values of every order up to MaxOrder.
func TestHilbertTableMatchesBitLoop(t *testing.T) {
	for order := uint(1); order <= 8; order++ {
		c := New(Hilbert, order)
		for x := uint32(0); x < c.Side(); x++ {
			for y := uint32(0); y < c.Side(); y++ {
				if got, want := c.Value(x, y), bitLoopValue(order, x, y); got != want {
					t.Fatalf("order %d: Value(%d,%d) = %d, reference %d", order, x, y, got, want)
				}
			}
		}
		for d := uint64(0); d < c.NumCells(); d++ {
			gx, gy := c.Decode(d)
			if wx, wy := bitLoopDecode(order, d); gx != wx || gy != wy {
				t.Fatalf("order %d: Decode(%d) = (%d,%d), reference (%d,%d)", order, d, gx, gy, wx, wy)
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for order := uint(1); order <= MaxOrder; order++ {
		c := New(Hilbert, order)
		for i := 0; i < 2000; i++ {
			x, y := rng.Uint32()&(c.Side()-1), rng.Uint32()&(c.Side()-1)
			if got, want := c.Value(x, y), bitLoopValue(order, x, y); got != want {
				t.Fatalf("order %d: Value(%d,%d) = %d, reference %d", order, x, y, got, want)
			}
			d := rng.Uint64() & (c.NumCells() - 1)
			gx, gy := c.Decode(d)
			if wx, wy := bitLoopDecode(order, d); gx != wx || gy != wy {
				t.Fatalf("order %d: Decode(%d) = (%d,%d), reference (%d,%d)", order, d, gx, gy, wx, wy)
			}
		}
	}
}

func TestHilbertRoundTripLargeOrderQuick(t *testing.T) {
	c := New(Hilbert, 21) // rank-space order for ~2M points
	f := func(x, y uint32) bool {
		x %= c.Side()
		y %= c.Side()
		gx, gy := c.Decode(c.Value(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestZRoundTripViaCurve(t *testing.T) {
	c := New(Z, 16)
	f := func(x, y uint32) bool {
		x %= c.Side()
		y %= c.Side()
		gx, gy := c.Decode(c.Value(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Z-curve window property used by Algorithm 2: within any query window, the
// minimum curve value is at the bottom-left corner cell and the maximum at
// the top-right corner cell.
func TestZWindowCornerProperty(t *testing.T) {
	c := New(Z, 4)
	windows := []struct{ x0, y0, x1, y1 uint32 }{
		{0, 0, 15, 15},
		{3, 2, 9, 11},
		{5, 5, 5, 5},
		{0, 7, 8, 15},
	}
	for _, w := range windows {
		lo := c.Value(w.x0, w.y0)
		hi := c.Value(w.x1, w.y1)
		for x := w.x0; x <= w.x1; x++ {
			for y := w.y0; y <= w.y1; y++ {
				v := c.Value(x, y)
				if v < lo || v > hi {
					t.Fatalf("Z window [%d,%d]x[%d,%d]: cell (%d,%d) value %d outside [%d,%d]",
						w.x0, w.x1, w.y0, w.y1, x, y, v, lo, hi)
				}
			}
		}
	}
}

// Hilbert window property used by Algorithm 2: the extreme curve values in a
// window are attained on the window boundary (§4.2, citing [48]).
func TestHilbertExtremesOnBoundary(t *testing.T) {
	c := New(Hilbert, 4)
	windows := []struct{ x0, y0, x1, y1 uint32 }{
		{1, 1, 12, 13},
		{2, 5, 9, 9},
		{0, 0, 15, 15},
	}
	for _, w := range windows {
		var minV, maxV uint64
		var minCell, maxCell [2]uint32
		first := true
		for x := w.x0; x <= w.x1; x++ {
			for y := w.y0; y <= w.y1; y++ {
				v := c.Value(x, y)
				if first || v < minV {
					minV, minCell = v, [2]uint32{x, y}
				}
				if first || v > maxV {
					maxV, maxCell = v, [2]uint32{x, y}
				}
				first = false
			}
		}
		onBoundary := func(cell [2]uint32) bool {
			return cell[0] == w.x0 || cell[0] == w.x1 || cell[1] == w.y0 || cell[1] == w.y1
		}
		if !onBoundary(minCell) {
			t.Errorf("window %v: min cell %v interior", w, minCell)
		}
		if !onBoundary(maxCell) {
			t.Errorf("window %v: max cell %v interior", w, maxCell)
		}
	}
}

func TestOrderFor(t *testing.T) {
	tests := []struct {
		n    int
		want uint
	}{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1000, 10}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, tc := range tests {
		if got := OrderFor(tc.n); got != tc.want {
			t.Errorf("OrderFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestValueClampsOutOfRange(t *testing.T) {
	c := New(Hilbert, 3)
	inRange := c.Value(7, 7)
	if got := c.Value(200, 7); got != inRange {
		t.Errorf("clamped Value = %d, want %d", got, inRange)
	}
	x, y := c.Decode(c.NumCells() + 5)
	lx, ly := c.Decode(c.NumCells() - 1)
	if x != lx || y != ly {
		t.Errorf("clamped Decode = (%d,%d), want (%d,%d)", x, y, lx, ly)
	}
}

func TestNewPanicsOnBadOrder(t *testing.T) {
	for _, order := range []uint{0, MaxOrder + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(order=%d) did not panic", order)
				}
			}()
			New(Hilbert, order)
		}()
	}
}

func TestKindString(t *testing.T) {
	if Hilbert.String() != "hilbert" || Z.String() != "z" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() != "sfc.Kind(99)" {
		t.Error("unknown Kind.String mismatch")
	}
}

func BenchmarkZValue(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += ZValue(uint32(i), uint32(i>>1))
	}
	_ = sink
}

func BenchmarkHilbertValue(b *testing.B) {
	c := New(Hilbert, 21)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += c.Value(uint32(i)&(c.Side()-1), uint32(i>>1)&(c.Side()-1))
	}
	_ = sink
}
