package index

import (
	"math"
	"math/rand"
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
