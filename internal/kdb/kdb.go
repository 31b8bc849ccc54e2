// Package kdb implements the K-D-B-tree baseline of §6.1 [39]: a kd-tree
// realised with a B-tree-like page structure so it supports block storage.
// Region pages hold up to F disjoint child regions; point pages hold up to B
// points. Bulk construction recursively median-splits on alternating
// dimensions ("Grid and KDB are the fastest due to their simple
// sorting-based construction", §6.2.2); insertion splits pages K-D-B style,
// propagating splits downward through crossing child regions.
//
// Every page visited during a query counts as one block access.
package kdb

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/index"
)

// DefaultFanout is the paper's page capacity (100 points per point page,
// 100 regions per region page).
const DefaultFanout = 100

// page is a K-D-B-tree page.
type page struct {
	region geom.Rect // the page's region (covers all content)
	leaf   bool
	pts    []geom.Point
	// children[i] occupies childRegion[i]; regions are disjoint and tile
	// the parent region.
	children []*page
	regions  []geom.Rect
}

// Tree is the K-D-B-tree baseline.
type Tree struct {
	root   *page
	fanout int
	size   int
	pages  int
	height int
	built  time.Duration
	// accesses is atomic: the baseline engines allow concurrent readers
	// (RWMutex read locks), and every query counts page visits.
	accesses atomic.Int64
}

var _ index.Index = (*Tree)(nil)

// universe is the region of the root page: the K-D-B-tree tiles the whole
// data space.
var universe = geom.Rect{
	MinX: math.Inf(-1), MinY: math.Inf(-1),
	MaxX: math.Inf(1), MaxY: math.Inf(1),
}

// New bulk-loads a K-D-B-tree by recursive median splits on alternating
// dimensions.
func New(pts []geom.Point, fanout int) *Tree {
	start := time.Now()
	if fanout == 0 {
		fanout = DefaultFanout
	}
	if fanout < 4 {
		fanout = 4
	}
	t := &Tree{fanout: fanout, size: len(pts)}
	work := append([]geom.Point(nil), pts...)
	t.root, t.height = t.bulk(work, universe, 0)
	t.built = time.Since(start)
	return t
}

// bulk builds the subtree for pts within region, returning it and its
// height. Splitting alternates dimensions starting with axis (0 = x).
func (t *Tree) bulk(pts []geom.Point, region geom.Rect, axis int) (*page, int) {
	t.pages++
	if len(pts) <= t.fanout {
		return &page{region: region, leaf: true, pts: append([]geom.Point(nil), pts...)}, 1
	}
	// Number of children needed so each child subtree can hold the points:
	// child capacity is fanout^(levels below). Compute the child count as
	// ceil(n / childCap) bounded by fanout.
	capacity := t.fanout
	for capacity < len(pts) {
		capacity *= t.fanout
	}
	childCap := capacity / t.fanout
	parts := (len(pts) + childCap - 1) / childCap
	if parts > t.fanout {
		parts = t.fanout
	}
	if parts < 2 {
		parts = 2
	}
	p := &page{region: region}
	maxH := 0
	t.partition(pts, region, axis, parts, func(sub []geom.Point, subRegion geom.Rect) {
		child, h := t.bulk(sub, subRegion, (axis+1)%2)
		p.children = append(p.children, child)
		p.regions = append(p.regions, subRegion)
		if h > maxH {
			maxH = h
		}
	})
	return p, maxH + 1
}

// partition recursively median-splits pts into `parts` contiguous regions,
// alternating split dimensions, and calls emit for each final part.
func (t *Tree) partition(pts []geom.Point, region geom.Rect, axis, parts int, emit func([]geom.Point, geom.Rect)) {
	if parts <= 1 || len(pts) == 0 {
		emit(pts, region)
		return
	}
	leftParts := parts / 2
	if axis == 0 {
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].X != pts[j].X {
				return pts[i].X < pts[j].X
			}
			return pts[i].Y < pts[j].Y
		})
	} else {
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].Y != pts[j].Y {
				return pts[i].Y < pts[j].Y
			}
			return pts[i].X < pts[j].X
		})
	}
	coord := func(p geom.Point) float64 {
		if axis == 0 {
			return p.X
		}
		return p.Y
	}
	cut := len(pts) * leftParts / parts
	// Move the cut to a clean coordinate boundary so every point strictly
	// left of the plane goes left and every point at or right of it goes
	// right — the same rule regionContains applies at query time.
	v := coord(pts[cut])
	lo := cut
	for lo > 0 && coord(pts[lo-1]) == v {
		lo--
	}
	if lo > 0 {
		cut = lo
	} else {
		hi := cut
		for hi < len(pts) && coord(pts[hi]) == v {
			hi++
		}
		if hi == len(pts) {
			// All points share this coordinate: this axis cannot split.
			emit(pts, region)
			return
		}
		cut = hi
	}
	split := coord(pts[cut])
	lr, rr := cutRegion(region, axis, split)
	t.partition(pts[:cut], lr, 1-axis, leftParts, emit)
	t.partition(pts[cut:], rr, 1-axis, parts-leftParts, emit)
}

// Name implements index.Index with the paper's label.
func (t *Tree) Name() string { return "KDB" }

// contains tests region membership with the K-D-B convention of half-open
// regions: [MinX, MaxX) except at the universe border. Using closed regions
// with tie points assigned left keeps duplicates-free data correct.
func regionContains(r geom.Rect, p geom.Point) bool {
	return p.X >= r.MinX && (p.X < r.MaxX || r.MaxX == math.Inf(1)) &&
		p.Y >= r.MinY && (p.Y < r.MaxY || r.MaxY == math.Inf(1))
}

// PointQuery implements index.Index: descend the unique region path.
func (t *Tree) PointQuery(q geom.Point) bool {
	p := t.root
	for {
		t.accesses.Add(1)
		if p.leaf {
			for _, pt := range p.pts {
				if pt == q {
					return true
				}
			}
			return false
		}
		next := -1
		for i, r := range p.regions {
			if regionContains(r, q) {
				next = i
				break
			}
		}
		if next == -1 {
			return false
		}
		p = p.children[next]
	}
}

// WindowQuery implements index.Index: recurse into intersecting regions.
// Exact.
func (t *Tree) WindowQuery(q geom.Rect) []geom.Point {
	var out []geom.Point
	var walk func(p *page)
	walk = func(p *page) {
		t.accesses.Add(1)
		if p.leaf {
			for _, pt := range p.pts {
				if q.Contains(pt) {
					out = append(out, pt)
				}
			}
			return
		}
		for i, r := range p.regions {
			if r.Intersects(q) {
				walk(p.children[i])
			}
		}
	}
	walk(t.root)
	return out
}

// walks pools KNN's best-first walks.
var walks index.Walks[*page]

// KNN implements index.Index with best-first search over region pages [40].
// Regions may be unbounded at the universe border; MINDIST handles their
// infinite edges because BestFirst runs only for a finite query point.
func (t *Tree) KNN(q geom.Point, k int) []geom.Point {
	if t.size == 0 {
		return nil
	}
	return walks.BestFirst(q, k, t.root, func(w *index.Walk[*page], pg *page) {
		t.accesses.Add(1)
		if pg.leaf {
			w.Offer(pg.pts...)
			return
		}
		for i, r := range pg.regions {
			w.Push(pg.children[i], r.MinDist2(q))
		}
	})
}

// Insert implements index.Index: descend to the point page; split pages
// K-D-B style on overflow.
func (t *Tree) Insert(p geom.Point) {
	t.size++
	if split := t.insert(t.root, p); split != nil {
		// Root split: new root with the two halves.
		old := t.root
		t.root = &page{
			region:   universe,
			children: []*page{old, split.right},
			regions:  []geom.Rect{split.leftRegion, split.rightRegion},
		}
		old.region = split.leftRegion
		t.pages++
		t.height++
	}
}

// splitResult describes a page split: the original page keeps the left
// half, right is the new sibling.
type splitResult struct {
	right       *page
	leftRegion  geom.Rect
	rightRegion geom.Rect
}

func (t *Tree) insert(pg *page, p geom.Point) *splitResult {
	if pg.leaf {
		pg.pts = append(pg.pts, p)
		if len(pg.pts) <= t.fanout {
			return nil
		}
		return t.splitPage(pg)
	}
	for i, r := range pg.regions {
		if !regionContains(r, p) {
			continue
		}
		if split := t.insert(pg.children[i], p); split != nil {
			pg.regions[i] = split.leftRegion
			pg.children[i].region = split.leftRegion
			pg.regions = append(pg.regions, split.rightRegion)
			pg.children = append(pg.children, split.right)
			if len(pg.children) > t.fanout {
				return t.splitPage(pg)
			}
		}
		return nil
	}
	// p is outside every child region (inserted beyond the build-time
	// extent): widen the nearest region. Regions tile the universe when
	// built, so this only happens on degenerate single-leaf trees.
	if len(pg.children) > 0 {
		pg.regions[0] = pg.regions[0].ExtendPoint(p)
		return t.insert(pg.children[0], p)
	}
	return nil
}

// splitPage splits pg by a median plane. For region pages, child regions
// crossing the plane are split recursively — the defining K-D-B-tree
// behaviour.
func (t *Tree) splitPage(pg *page) *splitResult {
	t.pages++
	if pg.leaf {
		axis := 0
		r := geom.BoundingRect(pg.pts)
		if r.Height() > r.Width() {
			axis = 1
		}
		sort.Slice(pg.pts, func(i, j int) bool {
			if axis == 0 {
				if pg.pts[i].X != pg.pts[j].X {
					return pg.pts[i].X < pg.pts[j].X
				}
				return pg.pts[i].Y < pg.pts[j].Y
			}
			if pg.pts[i].Y != pg.pts[j].Y {
				return pg.pts[i].Y < pg.pts[j].Y
			}
			return pg.pts[i].X < pg.pts[j].X
		})
		mid := len(pg.pts) / 2
		var plane float64
		if axis == 0 {
			plane = pg.pts[mid].X
		} else {
			plane = pg.pts[mid].Y
		}
		return t.splitLeafAt(pg, axis, plane)
	}
	// Region page: split at the median distinct child-region boundary, so
	// both halves are non-empty. If one axis has no distinct boundary, the
	// other is tried.
	for _, axis := range regionSplitAxes(pg.region) {
		var bounds []float64
		for _, r := range pg.regions {
			if axis == 0 {
				bounds = append(bounds, r.MinX)
			} else {
				bounds = append(bounds, r.MinY)
			}
		}
		sort.Float64s(bounds)
		distinct := bounds[:0:0]
		for i, b := range bounds {
			if i == 0 || b != bounds[i-1] {
				distinct = append(distinct, b)
			}
		}
		if len(distinct) < 2 {
			continue
		}
		plane := distinct[(len(distinct)+1)/2]
		return t.splitRegionAt(pg, axis, plane)
	}
	// No axis can split (all child regions share both minima): tolerate the
	// over-full page; queries remain correct.
	t.pages--
	return nil

}

// regionSplitAxes orders the axes by the region's extent, longest first.
func regionSplitAxes(r geom.Rect) [2]int {
	if r.IsEmpty() || r.Height() > r.Width() {
		return [2]int{1, 0}
	}
	return [2]int{0, 1}
}

// splitLeafAt splits a point page at the plane.
func (t *Tree) splitLeafAt(pg *page, axis int, plane float64) *splitResult {
	leftR, rightR := cutRegion(pg.region, axis, plane)
	var left, right []geom.Point
	for _, p := range pg.pts {
		if (axis == 0 && p.X < plane) || (axis == 1 && p.Y < plane) {
			left = append(left, p)
		} else {
			right = append(right, p)
		}
	}
	pg.pts = left
	pg.region = leftR
	return &splitResult{
		right:       &page{region: rightR, leaf: true, pts: right},
		leftRegion:  leftR,
		rightRegion: rightR,
	}
}

// splitRegionAt splits a region page at the plane, recursively splitting
// crossing children.
func (t *Tree) splitRegionAt(pg *page, axis int, plane float64) *splitResult {
	leftR, rightR := cutRegion(pg.region, axis, plane)
	leftPage := &page{region: leftR}
	rightPage := &page{region: rightR}
	for i, r := range pg.regions {
		child := pg.children[i]
		switch {
		case (axis == 0 && r.MaxX <= plane) || (axis == 1 && r.MaxY <= plane):
			leftPage.children = append(leftPage.children, child)
			leftPage.regions = append(leftPage.regions, r)
		case (axis == 0 && r.MinX >= plane) || (axis == 1 && r.MinY >= plane):
			rightPage.children = append(rightPage.children, child)
			rightPage.regions = append(rightPage.regions, r)
		default:
			// Child region crosses the plane: split it downward.
			split := t.splitChildAt(child, axis, plane)
			lcr, rcr := cutRegion(r, axis, plane)
			leftPage.children = append(leftPage.children, child)
			leftPage.regions = append(leftPage.regions, lcr)
			rightPage.children = append(rightPage.children, split)
			rightPage.regions = append(rightPage.regions, rcr)
		}
	}
	*pg = *leftPage
	return &splitResult{right: rightPage, leftRegion: leftR, rightRegion: rightR}
}

// splitChildAt force-splits child at the plane (downward propagation),
// returning the new right-side page.
func (t *Tree) splitChildAt(child *page, axis int, plane float64) *page {
	t.pages++
	if child.leaf {
		return t.splitLeafAt(child, axis, plane).right
	}
	return t.splitRegionAt(child, axis, plane).right
}

// cutRegion splits r at the plane along the axis.
func cutRegion(r geom.Rect, axis int, plane float64) (left, right geom.Rect) {
	left, right = r, r
	if axis == 0 {
		left.MaxX, right.MinX = plane, plane
		return left, right
	}
	left.MaxY, right.MinY = plane, plane
	return left, right
}

// Delete implements index.Index: locate and remove; pages are not merged
// (the paper's deletion flow flags points; KDB underflow handling is
// orthogonal to the evaluation).
func (t *Tree) Delete(p geom.Point) bool {
	pg := t.root
	for !pg.leaf {
		found := false
		for i, r := range pg.regions {
			if regionContains(r, p) {
				pg = pg.children[i]
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for i, pt := range pg.pts {
		if pt == p {
			last := len(pg.pts) - 1
			pg.pts[i] = pg.pts[last]
			pg.pts = pg.pts[:last]
			t.size--
			return true
		}
	}
	return false
}

// Len implements index.Index.
func (t *Tree) Len() int { return t.size }

// Stats implements index.Index.
func (t *Tree) Stats() index.Stats {
	const entryBytes = 40
	return index.Stats{
		Name:      t.Name(),
		SizeBytes: int64(t.pages) * int64(16+t.fanout*entryBytes),
		Height:    t.height,
		Blocks:    t.pages,
		BuildTime: t.built,
	}
}

// Accesses implements index.Index.
func (t *Tree) Accesses() int64 { return t.accesses.Load() }

// ResetAccesses implements index.Index.
func (t *Tree) ResetAccesses() { t.accesses.Store(0) }
