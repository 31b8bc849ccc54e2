// Package rank implements the rank space based point ordering of §3.1, the
// key ingredient RSMI borrows from the R-tree bulk-loading technique of Qi et
// al. [37, 38].
//
// The transform maps n points to an n×n grid where every row and every column
// contains exactly one point: a point's rank-space coordinate in dimension d
// is its rank among all points sorted by dimension d. An SFC over the rank
// grid then yields curve values whose gaps are far more even than curve
// values over the raw coordinate grid, which is what makes the CDF easy to
// learn (compare the paper's Figs. 2 and 3).
package rank

import (
	"cmp"
	"math"
	"slices"

	"rsmi/internal/geom"
	"rsmi/internal/sfc"
)

// Ranked is a point annotated with its rank-space cell and curve value.
type Ranked struct {
	Point geom.Point
	// RankX is the point's rank by x-coordinate (ties broken by y), i.e. its
	// column in the rank grid.
	RankX uint32
	// RankY is the point's rank by y-coordinate (ties broken by x), i.e. its
	// row in the rank grid.
	RankY uint32
	// CV is the SFC curve value of cell (RankX, RankY).
	CV uint64
}

// Transform maps the points to rank space and annotates each with its curve
// value under the given curve kind. The curve order is the smallest order
// whose grid side is at least len(pts) (one row/column per point).
//
// Tie-breaking follows the paper exactly: ranking by x breaks ties on y, and
// ranking by y breaks ties on x. The input slice is not modified.
func Transform(pts []geom.Point, kind sfc.Kind) []Ranked {
	rx, ry := Ranks(pts)
	curve, spread := rankCurve(len(pts), kind)
	out := make([]Ranked, len(pts))
	for i, p := range pts {
		out[i] = Ranked{Point: p, RankX: rx[i], RankY: ry[i], CV: curve.Value(spread[rx[i]], spread[ry[i]])}
	}
	return out
}

// parallelMin is the input size from which ranks sorts x and y on two
// goroutines. Below it — every RSMI leaf at the paper's N = 10,000 — a
// ranking takes well under a millisecond and the other core is usually
// busy training another shard; the partition of a sharded build, which
// runs before any shard can start, is far above it and has that core idle.
const parallelMin = 1 << 15

// Ranks returns every input point's rank by x (ties by y) and by y (ties by
// x): its column and row in rank space. Duplicate points rank in input
// order — the input index is the last tie-break — so each ranking has one
// possible outcome, whatever sorts it. The input slice is not modified.
func Ranks(pts []geom.Point) (rx, ry []uint32) {
	return ranks(pts, make([]keyed, 2*len(pts)))
}

// ranks is Ranks sorting through buf, 2·len(pts) long, which the caller
// may reuse afterwards; from parallelMin points on, the x ranking runs on a
// second goroutine with buffers of its own.
func ranks(pts []geom.Point, buf []keyed) (rx, ry []uint32) {
	n := len(pts)
	rx, ry = make([]uint32, n), make([]uint32, n)
	if n < parallelMin {
		rankBy(pts, false, rx, buf[:n], buf[n:])
		rankBy(pts, true, ry, buf[:n], buf[n:])
		return rx, ry
	}
	done := make(chan struct{})
	go func() {
		own := make([]keyed, 2*n)
		rankBy(pts, false, rx, own[:n], own[n:])
		close(done)
	}()
	rankBy(pts, true, ry, buf[:n], buf[n:])
	<-done
	return rx, ry
}

// keyed is a sort key with the input index it belongs to.
type keyed struct {
	key uint64
	idx uint32
}

// rankBy writes every input point's rank by x into rank, or by y when byY:
// a radix sort of the coordinate keys, which keeps equal keys in input
// order, then a comparison sort of each run of equal keys by the other
// coordinate. ks and buf, each as long as pts, are its sort buffers.
func rankBy(pts []geom.Point, byY bool, rank []uint32, ks, buf []keyed) {
	for i, p := range pts {
		c := p.X
		if byY {
			c = p.Y
		}
		ks[i] = keyed{floatKey(c), uint32(i)}
	}
	ks = sortKeyed(ks, buf)
	other := func(i uint32) float64 {
		if byY {
			return pts[i].X
		}
		return pts[i].Y
	}
	for lo := 0; lo < len(ks); {
		hi := lo + 1
		for hi < len(ks) && ks[hi].key == ks[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(ks[lo:hi], func(a, b keyed) int {
				return cmp.Or(cmp.Compare(other(a.idx), other(b.idx)), cmp.Compare(a.idx, b.idx))
			})
		}
		lo = hi
	}
	for r, k := range ks {
		rank[k.idx] = uint32(r)
	}
}

// floatKey maps a coordinate to a key whose unsigned order is the
// coordinate's numeric order: a non-negative float's bits order like its
// value once the sign bit is set, a negative one's once all bits are
// inverted. -0 takes +0's key, as -0 == +0.
func floatKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortKeyed sorts ks ascending by key, equal keys in their order in ks: a
// least-significant-digit radix sort, 11 bits per pass (six passes, where
// bytes would take eight), through buf (as long as ks). A digit that every
// key shares costs no pass. It returns the sorted slice, which is ks or buf.
func sortKeyed(ks, buf []keyed) []keyed {
	const bits = 11
	var counts [(64 + bits - 1) / bits][1 << bits]uint32
	for _, k := range ks {
		for d := range counts {
			counts[d][k.key>>(bits*d)&(1<<bits-1)]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if len(ks) == 0 || int(c[ks[0].key>>(bits*d)&(1<<bits-1)]) == len(ks) {
			continue
		}
		var sum uint32
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, k := range ks {
			b := k.key >> (bits * d) & (1<<bits - 1)
			buf[c[b]] = k
			c[b]++
		}
		ks, buf = buf, ks
	}
	return ks
}

// rankCurve returns the curve over the rank cells of n points, and the
// grid coordinate of every rank.
//
// The paper's rank space is an exact n×n grid; SFCs need a power-of-two
// side, so ranks are spread order-preservingly across the 2^⌈log2 n⌉ grid.
// Without the spreading, the curve's excursions through the empty band
// beyond rank n-1 would create the very gap unevenness the rank space
// exists to remove (cf. Figs. 2–3).
func rankCurve(n int, kind sfc.Kind) (sfc.Curve, []uint32) {
	curve := sfc.New(kind, sfc.OrderFor(n))
	return curve, spreadRanks(n, uint64(curve.Side()))
}

// spreadRanks returns r·(side-1)/(n-1), rounded down, for every rank r of
// n: the order-preserving spread of ranks 0..n-1 over 0..side-1, stepped
// without a division per rank (q·(n-1) + rem = r·(side-1) throughout).
func spreadRanks(n int, side uint64) []uint32 {
	spread := make([]uint32, n)
	if n == 1 {
		return spread
	}
	den := uint64(n - 1)
	step, frac := (side-1)/den, (side-1)%den
	var q, rem uint64
	for r := range spread {
		spread[r] = uint32(q)
		q, rem = q+step, rem+frac
		if rem >= den {
			q, rem = q+1, rem-den
		}
	}
	return spread
}

// Order returns the input points sorted by their rank-space curve value under
// the given curve kind. This is the ordering step used both by RSMI leaves
// and by the HRR bulk loader. Distinct rank cells have distinct curve
// values, so the order has one possible outcome and a radix sort of the
// values finds it.
func Order(pts []geom.Point, kind sfc.Kind) []geom.Point {
	out, _, _, _ := orderPoints(pts, kind, false)
	return out
}

// OrderOnGrid is Order that also returns every sorted point's column and row
// on the curve's grid — its x and y rank, spread over the grid's side — and
// the curve's order: what an RSMI leaf cuts its aligned cells from.
func OrderOnGrid(pts []geom.Point, kind sfc.Kind) (out []geom.Point, cols, rows []uint32, order uint) {
	return orderPoints(pts, kind, true)
}

// orderPoints is Order, returning the grid coordinates only when grid is set.
func orderPoints(pts []geom.Point, kind sfc.Kind, grid bool) (out []geom.Point, cols, rows []uint32, order uint) {
	n := len(pts)
	buf := make([]keyed, 2*n)
	rx, ry := ranks(pts, buf)
	curve, spread := rankCurve(n, kind)
	ks := buf[:n]
	for i := range ks {
		ks[i] = keyed{curve.Value(spread[rx[i]], spread[ry[i]]), uint32(i)}
	}
	ks = sortKeyed(ks, buf[n:])
	out = make([]geom.Point, len(ks))
	for i, k := range ks {
		out[i] = pts[k.idx]
	}
	if grid {
		cols, rows = make([]uint32, n), make([]uint32, n)
		for i, k := range ks {
			cols[i], rows[i] = spread[rx[k.idx]], spread[ry[k.idx]]
		}
	}
	return out, cols, rows, curve.Order()
}

// CurveGapStats summarises the gaps between consecutive curve values of the
// sorted points: the paper argues (§3.1) that rank-space ordering yields much
// smaller gap variance than raw-grid Z-ordering, which is what simplifies the
// CDF to learn. Used by the ablation experiment A1.
type CurveGapStats struct {
	Min, Max float64
	Mean     float64
	Variance float64
}

// Gaps computes gap statistics over curve values that must already be sorted
// ascending. It returns the zero value when fewer than two values are given.
func Gaps(cvs []uint64) CurveGapStats {
	if len(cvs) < 2 {
		return CurveGapStats{}
	}
	var s CurveGapStats
	s.Min = float64(cvs[1] - cvs[0])
	n := 0
	for i := 1; i < len(cvs); i++ {
		g := float64(cvs[i] - cvs[i-1])
		if g < s.Min {
			s.Min = g
		}
		if g > s.Max {
			s.Max = g
		}
		s.Mean += g
		n++
	}
	s.Mean /= float64(n)
	for i := 1; i < len(cvs); i++ {
		g := float64(cvs[i] - cvs[i-1])
		d := g - s.Mean
		s.Variance += d * d
	}
	s.Variance /= float64(n)
	return s
}
