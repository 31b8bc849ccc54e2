// Package geom provides the 2-dimensional geometric primitives shared by all
// spatial indices in this repository: points, axis-aligned rectangles, and the
// MINDIST metric of Roussopoulos et al. used for best-first kNN search.
//
// The package deliberately stays tiny and allocation-free: every index hot
// path (block scans, MBR filtering, priority-queue ordering) goes through it.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in 2-dimensional Euclidean space.
type Point struct {
	X, Y float64
}

// Pt is a convenience constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist2 returns the squared Euclidean distance between p and q.
// Squared distances order identically to distances and avoid the sqrt in
// comparison-heavy paths such as kNN priority queues.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Sqrt(p.Dist2(q))
}

// Less orders points by (X, Y). It is the canonical total order used to
// detect duplicates and to make query results comparable in tests.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// IsFinite reports whether both coordinates are finite: neither NaN nor ±Inf.
// Only finite points can be indexed (see core.ErrNonFinitePoint).
func (p Point) IsFinite() bool {
	// Both comparisons are false for a NaN.
	return math.Abs(p.X) <= math.MaxFloat64 && math.Abs(p.Y) <= math.MaxFloat64
}

// FinitePoints returns a new slice holding the finite points of pts, in
// order: the private, indexable copy of its input an index builds from.
func FinitePoints(pts []Point) []Point {
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		if p.IsFinite() {
			out = append(out, p)
		}
	}
	return out
}

// Compare is the three-way form of Less, the shape slices.SortFunc takes:
// negative when p orders before q by (X, Y), zero when neither does.
func (p Point) Compare(q Point) int {
	switch {
	case p.X < q.X:
		return -1
	case p.X > q.X:
		return 1
	case p.Y < q.Y:
		return -1
	case p.Y > q.Y:
		return 1
	}
	return 0
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)", p.X, p.Y)
}

// Rect is a closed axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// EmptyRect returns the identity element for Union: a rectangle that contains
// nothing and leaves any rectangle unchanged when united with it.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// RectAround returns the rectangle centered at c with the given full width and
// height. Used by the expanding-region kNN algorithm (Algorithm 3).
func RectAround(c Point, width, height float64) Rect {
	return Rect{
		MinX: c.X - width/2, MinY: c.Y - height/2,
		MaxX: c.X + width/2, MaxY: c.Y + height/2,
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	return o.MinX >= r.MinX && o.MaxX <= r.MaxX && o.MinY >= r.MinY && o.MaxY <= r.MaxY
}

// Intersects reports whether r and o share at least one point.
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, o.MinX),
		MinY: math.Min(r.MinY, o.MinY),
		MaxX: math.Max(r.MaxX, o.MaxX),
		MaxY: math.Max(r.MaxY, o.MaxY),
	}
}

// ExtendPoint returns the smallest rectangle containing both r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		MinX: math.Min(r.MinX, p.X),
		MinY: math.Min(r.MinY, p.Y),
		MaxX: math.Max(r.MaxX, p.X),
		MaxY: math.Max(r.MaxY, p.Y),
	}
}

// Intersect returns the intersection of r and o; the result IsEmpty when the
// rectangles do not overlap.
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		MinX: math.Max(r.MinX, o.MinX),
		MinY: math.Max(r.MinY, o.MinY),
		MaxX: math.Min(r.MaxX, o.MaxX),
		MaxY: math.Min(r.MaxY, o.MaxY),
	}
}

// Area returns the area of r; empty rectangles have zero area.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Margin returns half the perimeter of r (the R*-tree "margin" measure).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Width returns the extent of r along the x-axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y-axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Enlargement returns how much r's area grows when extended to contain o.
func (r Rect) Enlargement(o Rect) float64 {
	return r.Union(o).Area() - r.Area()
}

// OverlapArea returns the area shared by r and o.
func (r Rect) OverlapArea(o Rect) float64 {
	return r.Intersect(o).Area()
}

// MinDist2 returns the squared MINDIST metric between p and r: the squared
// distance from p to the closest point of r, and 0 when p is inside r.
func (r Rect) MinDist2(p Point) float64 {
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return dx*dx + dy*dy
}

// MinDist returns the MINDIST metric between p and r.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// BoundingRect returns the MBR of pts; it is EmptyRect for an empty slice.
func BoundingRect(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}
