// Package hrr implements the HRR baseline of §6.1: an R-tree bulk-loaded
// with the rank space technique of Qi et al. [37, 38] using a Hilbert curve
// for the ordering — the same ordering RSMI's leaves use (§3.1). It offers
// the state-of-the-art window query performance among R-trees.
//
// Besides the packed tree, HRR maintains two B+-trees mapping x- and
// y-coordinates to their ranks, which the original uses for its rank-space
// query mapping; the paper charges them to HRR's index size ("HRR is also
// larger than RSMI because it uses two extra B-trees for its rank space
// mapping", §6.2.2). Queries here traverse the packed tree's MBRs, which
// returns identical answers.
package hrr

import (
	"sort"
	"time"

	"rsmi/internal/btree"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/rank"
	"rsmi/internal/rtree"
	"rsmi/internal/sfc"
)

// Tree is the rank-space Hilbert-packed R-tree baseline.
type Tree struct {
	t            *rtree.Tree
	rankX, rankY *btree.Tree
	built        time.Duration
}

var _ index.Index = (*Tree)(nil)

// policy supplies insertion behaviour for points added after bulk loading:
// minimal area enlargement descent and a simple mid-sort split (packed trees
// see few inserts; the bulk structure dominates).
type policy struct{}

func (policy) ChooseSubtree(n *rtree.Node, p geom.Point) *rtree.Node {
	best := n.Children[0]
	bestEnlarge := best.MBR.Enlargement(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	bestArea := best.MBR.Area()
	for _, c := range n.Children[1:] {
		en := c.MBR.Enlargement(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
		ar := c.MBR.Area()
		if en < bestEnlarge || (en == bestEnlarge && ar < bestArea) {
			best, bestEnlarge, bestArea = c, en, ar
		}
	}
	return best
}

func (policy) SplitLeaf(pts []geom.Point) ([]geom.Point, []geom.Point) {
	s := append([]geom.Point(nil), pts...)
	// Split along the axis with the larger spread.
	r := geom.BoundingRect(s)
	sort.Slice(s, func(i, j int) bool {
		if r.Width() >= r.Height() {
			if s[i].X != s[j].X {
				return s[i].X < s[j].X
			}
			return s[i].Y < s[j].Y
		}
		if s[i].Y != s[j].Y {
			return s[i].Y < s[j].Y
		}
		return s[i].X < s[j].X
	})
	mid := len(s) / 2
	return append([]geom.Point(nil), s[:mid]...), append([]geom.Point(nil), s[mid:]...)
}

func (policy) SplitInternal(ch []*rtree.Node) ([]*rtree.Node, []*rtree.Node) {
	s := append([]*rtree.Node(nil), ch...)
	sort.Slice(s, func(i, j int) bool {
		ci, cj := s[i].MBR.Center(), s[j].MBR.Center()
		if ci.X != cj.X {
			return ci.X < cj.X
		}
		return ci.Y < cj.Y
	})
	mid := len(s) / 2
	return append([]*rtree.Node(nil), s[:mid]...), append([]*rtree.Node(nil), s[mid:]...)
}

// New bulk-loads the HRR over the points: rank-space transform, Hilbert
// ordering, and bottom-up packing of every `fanout` points per leaf.
func New(pts []geom.Point, fanout int) *Tree {
	start := time.Now()
	if fanout == 0 {
		fanout = rtree.DefaultFanout
	}
	ordered := rank.Order(pts, sfc.Hilbert)
	var leaves [][]geom.Point
	for i := 0; i < len(ordered); i += fanout {
		j := i + fanout
		if j > len(ordered) {
			j = len(ordered)
		}
		leaves = append(leaves, ordered[i:j])
	}
	tr := &Tree{t: rtree.BulkLeaves(policy{}, fanout, leaves)}

	// Rank-mapping B-trees over each dimension.
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	tr.rankX = btree.Bulk(xs, fanout)
	tr.rankY = btree.Bulk(ys, fanout)
	tr.built = time.Since(start)
	return tr
}

// Name implements index.Index with the paper's label.
func (tr *Tree) Name() string { return "HRR" }

// RankOf maps a coordinate pair to its per-dimension ranks using the
// B-trees, the rank-space mapping primitive of [37, 38].
func (tr *Tree) RankOf(p geom.Point) (rx, ry int) {
	return tr.rankX.Rank(p.X), tr.rankY.Rank(p.Y)
}

// PointQuery implements index.Index.
func (tr *Tree) PointQuery(q geom.Point) bool { return tr.t.PointQuery(q) }

// WindowQuery implements index.Index with exact answers.
func (tr *Tree) WindowQuery(q geom.Rect) []geom.Point { return tr.t.WindowQuery(q) }

// KNN implements index.Index with the exact best-first algorithm [40].
func (tr *Tree) KNN(q geom.Point, k int) []geom.Point { return tr.t.KNN(q, k) }

// Insert implements index.Index. The rank B-trees absorb the new
// coordinates so RankOf stays exact.
func (tr *Tree) Insert(p geom.Point) {
	tr.t.Insert(p)
	tr.rankX.Insert(p.X)
	tr.rankY.Insert(p.Y)
}

// Delete implements index.Index. The rank B-trees retain the coordinate
// (rank mapping stays a superset; queries remain exact via the R-tree).
func (tr *Tree) Delete(p geom.Point) bool { return tr.t.Delete(p) }

// Len implements index.Index.
func (tr *Tree) Len() int { return tr.t.Len() }

// Stats implements index.Index; the two rank B-trees are charged to the
// index size, as in the paper.
func (tr *Tree) Stats() index.Stats {
	return index.Stats{
		Name:      tr.Name(),
		SizeBytes: tr.t.SizeBytes() + tr.rankX.SizeBytes() + tr.rankY.SizeBytes(),
		Height:    tr.t.Height(),
		Blocks:    tr.t.Nodes(),
		BuildTime: tr.built,
	}
}

// Accesses implements index.Index.
func (tr *Tree) Accesses() int64 { return tr.t.Accesses() }

// ResetAccesses implements index.Index.
func (tr *Tree) ResetAccesses() { tr.t.ResetAccesses() }
