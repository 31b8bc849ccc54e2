package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rsmi/internal/geom"
)

// held returns the points a Nearest holds, nearest first, without ending it.
func held(n *Nearest) []geom.Point {
	out := make([]geom.Point, len(n.buf.list))
	for i, c := range n.buf.list {
		out[i] = c.p
	}
	return out
}

// TestNearestMatchesFullSort: after every offer the set holds exactly the
// first k of SortByDistance over everything offered so far, and Bound is the
// k-th distance (+Inf until k points were offered). Offers run from empty to
// a few blocks' worth; half of them arrive sorted by distance with
// equidistant points in any order, as one shard's answer does. Coordinates
// come from a coarse grid, so ties are everywhere, at the k-th place too;
// one query is so far away that every distance overflows to +Inf. Each
// trial ends in Points, and the next draws the storage it returned from the
// pool: it must start empty, and the answer handed out must not change.
func TestNearestMatchesFullSort(t *testing.T) {
	for _, k := range []int{1, 25, 625} {
		rng := rand.New(rand.NewSource(int64(k)))
		var prev, prevWant []geom.Point
		for trial := 0; trial < 12; trial++ {
			q := geom.Pt(float64(rng.Intn(12)), float64(rng.Intn(12)))
			if trial == 0 {
				q.X = 1e300 // every distance overflows to +Inf: the canonical order alone decides
			}
			n := NewNearest(q, k)
			if len(n.buf.list) != 0 || n.Full() || !math.IsInf(n.Bound(), 1) {
				t.Fatalf("k=%d trial %d: a new set holds %d points (full=%v, bound %v)", k, trial, len(n.buf.list), n.Full(), n.Bound())
			}
			var all []geom.Point
			for len(all) < 3*k+200 {
				offer := make([]geom.Point, rng.Intn(250))
				for i := range offer {
					offer[i] = geom.Pt(float64(rng.Intn(12)), float64(rng.Intn(12)))
					if rng.Intn(4) == 0 { // a quarter off the grid: distinct distances too
						offer[i].X += rng.Float64()
					}
				}
				if rng.Intn(2) == 0 {
					SortByDistance(offer, q)
					for i := len(offer) - 1; i > 0; i-- {
						if q.Dist2(offer[i]) == q.Dist2(offer[i-1]) && rng.Intn(2) == 0 {
							offer[i], offer[i-1] = offer[i-1], offer[i]
						}
					}
				}
				n.Offer(offer...)
				all = append(all, offer...)

				want := append([]geom.Point(nil), all...)
				SortByDistance(want, q)
				want = want[:min(k, len(want))]
				got := held(&n)
				if len(got) != len(want) || n.Full() != (len(all) >= k) {
					t.Fatalf("k=%d after %d points: %d held (full=%v), want %d", k, len(all), len(got), n.Full(), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d after %d points: rank %d is %v (d²=%v), full sort has %v (d²=%v)",
							k, len(all), i, got[i], q.Dist2(got[i]), want[i], q.Dist2(want[i]))
					}
				}
				wantBound := math.Inf(1)
				if n.Full() {
					wantBound = q.Dist2(want[k-1])
				}
				if n.Bound() != wantBound {
					t.Fatalf("k=%d after %d points: Bound() = %v, want %v", k, len(all), n.Bound(), wantBound)
				}
			}
			for i := range prev {
				if prev[i] != prevWant[i] {
					t.Fatalf("k=%d trial %d: the last trial's answer changed at rank %d once its storage was reused", k, trial, i)
				}
			}
			prevWant = held(&n)
			prev = n.Points()
			if len(prev) != len(prevWant) {
				t.Fatalf("k=%d trial %d: Points returned %d points, the set held %d", k, trial, len(prev), len(prevWant))
			}
			for i := range prev {
				if prev[i] != prevWant[i] {
					t.Fatalf("k=%d trial %d: Points rank %d is %v, the set held %v", k, trial, i, prev[i], prevWant[i])
				}
			}
		}
	}
}

// queued returns the nodes in w's queue, in queue order.
func queued[N any](w *Walk[N]) []N {
	out := make([]N, len(w.queue))
	for i, e := range w.queue {
		out[i] = e.node
	}
	return out
}

// TestWalkPushDropsBeyondBound: until k points are held Push keeps every
// entry, however far; once they are held it drops an entry beyond the k-th
// distance and keeps one exactly at it, which Search still expands.
func TestWalkPushDropsBeyondBound(t *testing.T) {
	var w Walk[int]
	w.Reset(geom.Pt(0, 0), 2)
	w.Push(1, 100)
	w.Offer(geom.Pt(1, 0))
	w.Push(2, math.Inf(1))
	if got := queued(&w); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("before k points are held the queue is %v, want [1 2]", got)
	}
	w.Offer(geom.Pt(0, 2)) // k = 2 held: the bound is 4
	w.Push(3, 4)
	w.Push(4, math.Nextafter(4, 5))
	w.Push(5, 1)
	w.Push(6, 100)
	got := queued(&w)
	slices.Sort(got)
	if !slices.Equal(got, []int{1, 2, 3, 5}) {
		t.Fatalf("with the bound at 4 the queue is %v, want [1 2 3 5]", got)
	}
	w.Points()
}

// box is a node of a point quadtree, a tree for the walks to search.
type box struct {
	r    geom.Rect
	pts  []geom.Point // a leaf's points
	kids []*box
}

// newBox builds a quadtree over distinct points, at most four per leaf.
func newBox(pts []geom.Point) *box {
	b := &box{r: geom.BoundingRect(pts)}
	if len(pts) <= 4 {
		b.pts = pts
		return b
	}
	c := b.r.Center()
	var quads [4][]geom.Point
	for _, p := range pts {
		i := 0
		if p.X > c.X {
			i |= 1
		}
		if p.Y > c.Y {
			i |= 2
		}
		quads[i] = append(quads[i], p)
	}
	for _, q := range quads {
		if len(q) > 0 {
			b.kids = append(b.kids, newBox(q))
		}
	}
	return b
}

// expandBox pushes a box's children or offers a leaf's points.
func expandBox(w *Walk[*box], b *box) {
	if b.kids == nil {
		w.Offer(b.pts...)
		return
	}
	for _, c := range b.kids {
		w.Push(c, c.r.MinDist2(w.Query()))
	}
}

// TestWalksOnLattice: on the integer lattice, where distance ties are the
// rule at every place, Search answers what a full sort answers, point for
// point.
func TestWalksOnLattice(t *testing.T) {
	const side = 20
	var pts []geom.Point
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	root := newBox(slices.Clone(pts))
	var walks Walks[*box]
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 60; i++ {
		x, y := float64(rng.Intn(side)), float64(rng.Intn(side))
		for _, q := range []geom.Point{geom.Pt(x, y), geom.Pt(x+0.5, y+0.5), geom.Pt(x+0.5, y), geom.Pt(-3, y)} {
			all := slices.Clone(pts)
			SortByDistance(all, q)
			for _, k := range []int{1, 2, 4, 5, 8, 9, 13, 21, 25, side * side, side*side + 3} {
				want := all[:min(k, len(all))]
				got := walks.BestFirst(q, k, root, expandBox)
				if !slices.Equal(got, want) {
					t.Fatalf("Search(%v, %d) = %v, full sort %v", q, k, got, want)
				}
			}
		}
	}
}
