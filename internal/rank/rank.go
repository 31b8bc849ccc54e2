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
	n := len(pts)
	out := make([]Ranked, n)
	if n == 0 {
		return out
	}
	for i, p := range pts {
		out[i].Point = p
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Rank by x, ties by y; then by y, ties by x. Duplicate points rank in
	// input order — the input index is the last tie-break — so each sort has
	// one possible outcome, whatever the sorting algorithm.
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(pts[a].Compare(pts[b]), a-b)
	})
	for r, i := range idx {
		out[i].RankX = uint32(r)
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(pts[a].CompareYX(pts[b]), a-b)
	})
	for r, i := range idx {
		out[i].RankY = uint32(r)
	}

	// The paper's rank space is an exact n×n grid; SFCs need a power-of-two
	// side, so ranks are spread order-preservingly across the 2^⌈log2 n⌉
	// grid. Without the spreading, the curve's excursions through the
	// empty band beyond rank n-1 would create the very gap unevenness the
	// rank space exists to remove (cf. Figs. 2–3).
	curve := sfc.New(kind, sfc.OrderFor(n))
	side := uint64(curve.Side())
	scale := func(r uint32) uint32 {
		if n == 1 {
			return 0
		}
		return uint32(uint64(r) * (side - 1) / uint64(n-1))
	}
	for i := range out {
		out[i].CV = curve.Value(scale(out[i].RankX), scale(out[i].RankY))
	}
	return out
}

// SortByCurveValue sorts ranked points ascending by curve value in place.
// Ties (impossible for distinct rank cells, but kept for safety) break by
// the canonical point order.
func SortByCurveValue(rs []Ranked) {
	slices.SortFunc(rs, func(a, b Ranked) int {
		if a.CV != b.CV {
			return cmp.Compare(a.CV, b.CV)
		}
		return a.Point.Compare(b.Point)
	})
}

// Order returns the input points sorted by their rank-space curve value under
// the given curve kind. This is the ordering step used both by RSMI leaves
// and by the HRR bulk loader.
func Order(pts []geom.Point, kind sfc.Kind) []geom.Point {
	rs := Transform(pts, kind)
	SortByCurveValue(rs)
	out := make([]geom.Point, len(rs))
	for i, r := range rs {
		out[i] = r.Point
	}
	return out
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
