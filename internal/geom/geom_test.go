package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); got != tc.want {
				t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
			if got := tc.p.Dist2(tc.q); got != tc.want*tc.want {
				t.Errorf("Dist2(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
			}
		})
	}
}

func TestPointDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist2(b) == b.Dist2(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointLessTotalOrder(t *testing.T) {
	a, b, c := Point{0, 1}, Point{0, 2}, Point{1, 0}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Error("Less is not transitive on sample points")
	}
	if a.Less(a) {
		t.Error("Less must be irreflexive")
	}
	if b.Less(a) {
		t.Error("Less(b,a) must be false when Less(a,b)")
	}
}

// Compare is Less in three-way form.
func TestPointCompareAgreesWithLess(t *testing.T) {
	pts := []Point{{0, 1}, {0, 2}, {1, 0}, {1, 0}, {-3, 7}, {math.Copysign(0, -1), 1}}
	for _, p := range pts {
		for _, q := range pts {
			c := p.Compare(q)
			if (c < 0) != p.Less(q) || (c > 0) != q.Less(p) {
				t.Errorf("Compare(%v, %v) = %d, Less says %v / %v", p, q, c, p.Less(q), q.Less(p))
			}
		}
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(Point{3, -1}, Point{-2, 4})
	want := Rect{MinX: -2, MinY: -1, MaxX: 3, MaxY: 4}
	if r != want {
		t.Errorf("NewRect = %v, want %v", r, want)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 5}
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{5, 2}, true},
		{Point{0, 0}, true},  // min corner inclusive
		{Point{10, 5}, true}, // max corner inclusive
		{Point{10, 0}, true}, // edge
		{Point{-0.1, 2}, false},
		{Point{5, 5.1}, false},
		{Point{11, 2}, false},
	}
	for _, tc := range tests {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	base := Rect{0, 0, 10, 10}
	tests := []struct {
		name string
		o    Rect
		want bool
	}{
		{"identical", base, true},
		{"inside", Rect{2, 2, 3, 3}, true},
		{"overlap corner", Rect{8, 8, 12, 12}, true},
		{"touch edge", Rect{10, 0, 20, 10}, true},
		{"touch corner", Rect{10, 10, 20, 20}, true},
		{"disjoint right", Rect{10.5, 0, 20, 10}, false},
		{"disjoint above", Rect{0, 11, 10, 20}, false},
		{"empty", EmptyRect(), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := base.Intersects(tc.o); got != tc.want {
				t.Errorf("Intersects = %v, want %v", got, tc.want)
			}
			if got := tc.o.Intersects(base); got != tc.want {
				t.Errorf("Intersects (reversed) = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect must be empty")
	}
	if e.Area() != 0 {
		t.Errorf("empty Area = %v, want 0", e.Area())
	}
	if e.Margin() != 0 {
		t.Errorf("empty Margin = %v, want 0", e.Margin())
	}
	r := Rect{1, 2, 3, 4}
	if got := e.Union(r); got != r {
		t.Errorf("EmptyRect.Union(r) = %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Errorf("r.Union(EmptyRect) = %v, want %v", got, r)
	}
}

func TestUnionIsCommutativeAndContaining(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r1 := NewRect(Point{ax, ay}, Point{bx, by})
		r2 := NewRect(Point{cx, cy}, Point{dx, dy})
		u := r1.Union(r2)
		return u == r2.Union(r1) && u.ContainsRect(r1) && u.ContainsRect(r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntersectWithinBoth(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r1 := NewRect(Point{ax, ay}, Point{bx, by})
		r2 := NewRect(Point{cx, cy}, Point{dx, dy})
		in := r1.Intersect(r2)
		if in.IsEmpty() {
			return !r1.Intersects(r2) ||
				// touching rectangles intersect with zero area
				in.Area() == 0
		}
		return r1.ContainsRect(in) && r2.ContainsRect(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAreaMarginCenter(t *testing.T) {
	r := Rect{1, 2, 4, 6}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Margin(); got != 7 {
		t.Errorf("Margin = %v, want 7", got)
	}
	if got := r.Center(); got != (Point{2.5, 4}) {
		t.Errorf("Center = %v, want (2.5,4)", got)
	}
	if r.Width() != 3 || r.Height() != 4 {
		t.Errorf("Width/Height = %v/%v, want 3/4", r.Width(), r.Height())
	}
}

func TestEnlargement(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if got := r.Enlargement(Rect{0, 0, 1, 1}); got != 0 {
		t.Errorf("Enlargement by contained rect = %v, want 0", got)
	}
	if got := r.Enlargement(Rect{0, 0, 4, 2}); got != 4 {
		t.Errorf("Enlargement = %v, want 4", got)
	}
}

func TestMinDist(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"inside", Point{5, 5}, 0},
		{"on edge", Point{10, 5}, 0},
		{"right of", Point{13, 5}, 3},
		{"above", Point{5, 14}, 4},
		{"corner diagonal", Point{13, 14}, 5},
		{"left below", Point{-3, -4}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := r.MinDist(tc.p); got != tc.want {
				t.Errorf("MinDist(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

// MINDIST lower-bound property: for any point q and any point p inside r,
// MinDist(q, r) <= Dist(q, p). This is the invariant best-first kNN relies on.
func TestMinDistLowerBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		r := NewRect(
			Point{rng.Float64() * 10, rng.Float64() * 10},
			Point{rng.Float64() * 10, rng.Float64() * 10},
		)
		q := Point{rng.Float64()*30 - 10, rng.Float64()*30 - 10}
		// random point inside r
		p := Point{
			r.MinX + rng.Float64()*(r.MaxX-r.MinX),
			r.MinY + rng.Float64()*(r.MaxY-r.MinY),
		}
		if md := r.MinDist2(q); md > q.Dist2(p)+1e-12 {
			t.Fatalf("MinDist2(%v,%v)=%v exceeds Dist2 to inner point %v (%v)",
				q, r, md, p, q.Dist2(p))
		}
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Point{5, 5}, 2, 4)
	want := Rect{4, 3, 6, 7}
	if r != want {
		t.Errorf("RectAround = %v, want %v", r, want)
	}
	if c := r.Center(); c != (Point{5, 5}) {
		t.Errorf("center moved: %v", c)
	}
}

func TestBoundingRect(t *testing.T) {
	if got := BoundingRect(nil); !got.IsEmpty() {
		t.Errorf("BoundingRect(nil) = %v, want empty", got)
	}
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	got := BoundingRect(pts)
	want := Rect{-2, -1, 4, 5}
	if got != want {
		t.Errorf("BoundingRect = %v, want %v", got, want)
	}
	for _, p := range pts {
		if !got.Contains(p) {
			t.Errorf("bounding rect misses %v", p)
		}
	}
}

func TestExtendPoint(t *testing.T) {
	r := EmptyRect().ExtendPoint(Point{1, 2})
	if r.IsEmpty() || !r.Contains(Point{1, 2}) || r.Area() != 0 {
		t.Errorf("single-point rect wrong: %v", r)
	}
	r = r.ExtendPoint(Point{3, 0})
	want := Rect{1, 0, 3, 2}
	if r != want {
		t.Errorf("ExtendPoint = %v, want %v", r, want)
	}
}

func TestContainsRect(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.ContainsRect(outer) {
		t.Error("rect must contain itself")
	}
	if !outer.ContainsRect(Rect{1, 1, 9, 9}) {
		t.Error("must contain inner rect")
	}
	if outer.ContainsRect(Rect{1, 1, 11, 9}) {
		t.Error("must not contain protruding rect")
	}
}

func TestOverlapArea(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	if got := a.OverlapArea(b); got != 4 {
		t.Errorf("OverlapArea = %v, want 4", got)
	}
	if got := a.OverlapArea(Rect{5, 5, 6, 6}); got != 0 {
		t.Errorf("disjoint OverlapArea = %v, want 0", got)
	}
}

func TestStringFormats(t *testing.T) {
	if s := (Point{1.5, 2}).String(); s != "(1.5, 2)" {
		t.Errorf("Point.String = %q", s)
	}
	if s := (Rect{0, 1, 2, 3}).String(); s != "[0,2]x[1,3]" {
		t.Errorf("Rect.String = %q", s)
	}
}

func TestMinDistMatchesBruteForce(t *testing.T) {
	// Compare MinDist against dense sampling of the rectangle boundary.
	r := Rect{2, 3, 7, 9}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q := Point{rng.Float64()*20 - 5, rng.Float64()*20 - 5}
		best := math.Inf(1)
		const steps = 400
		for s := 0; s <= steps; s++ {
			f := float64(s) / steps
			cands := []Point{
				{r.MinX + f*(r.MaxX-r.MinX), r.MinY},
				{r.MinX + f*(r.MaxX-r.MinX), r.MaxY},
				{r.MinX, r.MinY + f*(r.MaxY-r.MinY)},
				{r.MaxX, r.MinY + f*(r.MaxY-r.MinY)},
			}
			for _, c := range cands {
				if d := q.Dist(c); d < best {
					best = d
				}
			}
		}
		if r.Contains(q) {
			best = 0
		}
		if got := r.MinDist(q); math.Abs(got-best) > 1e-2 {
			t.Fatalf("MinDist(%v) = %v, brute force %v", q, got, best)
		}
	}
}

func TestPointIsFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Point{{0, 0}, {-1e300, math.MaxFloat64}, {5e-324, math.Copysign(0, -1)}, {-math.MaxFloat64, 1}} {
		if !p.IsFinite() {
			t.Errorf("%v reported as not finite", p)
		}
	}
	for _, p := range []Point{{nan, 0}, {0, nan}, {inf, 0}, {0, inf}, {-inf, 0}, {0, -inf}, {nan, inf}} {
		if p.IsFinite() {
			t.Errorf("%v reported as finite", p)
		}
	}
	got := FinitePoints([]Point{{nan, 0}, {1, 2}, {0, inf}, {3, 4}, {-inf, nan}})
	if len(got) != 2 || got[0] != (Point{1, 2}) || got[1] != (Point{3, 4}) {
		t.Errorf("FinitePoints = %v, want [(1, 2) (3, 4)]", got)
	}
}
