// Package cdf implements the piecewise mapping function (PMF) of §4.3. The
// ZM baseline's kNN (Algorithm 3's expanding region over a Z-order index)
// uses it to estimate the skew parameters αx and αy that size its initial
// search region, and the planner (internal/plan) to estimate how many points
// a window holds. RSMI answers kNN by an MBR walk and holds no PMF.
//
// Following the paper (which follows [48]): the data set is partitioned into
// γ partitions by one coordinate; for the boundary point x_i of each
// partition a cumulative count is recorded; and piecewise linear functions
// connect the points (x_i.cord, x_{i-1}.c / n) to approximate the true CDF.
// The paper uses γ = 100 and ∆ = 0.01.
package cdf

import (
	"math/bits"
	"sort"
)

// DefaultGamma is the paper's number of PMF pieces (γ = 100, §4.3).
const DefaultGamma = 100

// DefaultDelta is the paper's slope-probing step (∆ = 0.01, §4.3).
const DefaultDelta = 0.01

// maxAlpha caps the skew parameter so a query in an empty region cannot
// produce an unbounded initial search window; the expansion loop of
// Algorithm 3 takes over from there.
const maxAlpha = 64

// PMF is a piecewise linear approximation of a one-dimensional CDF.
type PMF struct {
	// knots are the γ+1 partition boundary coordinates, ascending.
	knots []float64
	// cum[i] is the fraction of points with coordinate <= knots[i].
	cum []float64
}

// New builds a PMF over the given coordinates with γ pieces. The input slice
// is not modified. New returns a degenerate (uniform) PMF for fewer than two
// points or zero spread, which keeps kNN working on tiny or collapsed data.
//
// The knots are γ+1 order statistics of the coordinates, read from a copy
// that selectRanks puts in order only around those ranks: each knot is the
// value a full sort.Float64s of the copy would leave at its rank.
func New(coords []float64, gamma int) *PMF {
	if gamma <= 0 {
		gamma = DefaultGamma
	}
	n := len(coords)
	if n < 2 {
		return &PMF{knots: []float64{0, 1}, cum: []float64{0, 1}}
	}
	if gamma > n {
		gamma = n
	}
	// Rank 0 is the minimum; the i-th partition ends at rank i*n/γ − 1, the
	// last of them at the maximum.
	ranks := make([]int, 1, gamma+1)
	for i := 1; i <= gamma; i++ {
		ranks = append(ranks, i*n/gamma-1)
	}
	ordered := append([]float64(nil), coords...)
	selectRanks(ordered, ranks)
	if ordered[0] == ordered[n-1] {
		return &PMF{knots: []float64{ordered[0], ordered[0] + 1}, cum: []float64{0, 1}}
	}
	knots := make([]float64, 0, gamma+1)
	cum := make([]float64, 0, gamma+1)
	knots = append(knots, ordered[0])
	cum = append(cum, 0)
	for i := 1; i <= gamma; i++ {
		// Boundary point of the i-th partition.
		idx := i*n/gamma - 1
		k := ordered[idx]
		c := float64(idx+1) / float64(n)
		// Collapse duplicate knots (heavy ties) keeping the larger count.
		if k == knots[len(knots)-1] {
			cum[len(cum)-1] = c
			continue
		}
		knots = append(knots, k)
		cum = append(cum, c)
	}
	return &PMF{knots: knots, cum: cum}
}

// selectRanks reorders a so that, for every rank r in ranks (ascending),
// a[r] holds the value sort.Float64s would leave there; −0 and +0, which
// that sort does not order, may trade places. NaNs go first, as the sort
// puts them, and selectOrdered finds the rest.
func selectRanks(a []float64, ranks []int) {
	nans := 0
	for i, v := range a {
		if v != v {
			a[i], a[nans] = a[nans], v
			nans++
		}
	}
	skip := sort.SearchInts(ranks, nans)
	selectOrdered(a[nans:], nans, ranks[skip:], 2*bits.Len(uint(len(a))))
}

// selectOrdered is selectRanks over a holding no NaN, whose a[0] has rank
// off. It is quickselect after every wanted rank at once: a stretch is
// partitioned until no wanted rank lies in it. After depth partitions it
// sorts what is left, which bounds the work at a sort's.
func selectOrdered(a []float64, off int, ranks []int, depth int) {
	for len(ranks) > 0 {
		if len(a) <= 12 || depth == 0 {
			sort.Float64s(a)
			return
		}
		depth--
		// Hoare's partition around the median of three, moved to a[0]:
		// a[:split] ≤ p ≤ a[split:], with both sides non-empty.
		m, last := len(a)/2, len(a)-1
		if a[m] < a[0] {
			a[m], a[0] = a[0], a[m]
		}
		if a[last] < a[m] {
			a[last], a[m] = a[m], a[last]
			if a[m] < a[0] {
				a[m], a[0] = a[0], a[m]
			}
		}
		a[0], a[m] = a[m], a[0]
		p := a[0]
		i, j := -1, len(a)
		for {
			for i++; a[i] < p; i++ {
			}
			for j--; p < a[j]; j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		split := j + 1
		k := sort.SearchInts(ranks, off+split)
		selectOrdered(a[:split], off, ranks[:k], depth)
		a, off, ranks = a[split:], off+split, ranks[k:]
	}
}

// Eval returns the PMF's CDF estimate at x, clamped to [0, 1]. NaN, which
// lies in no piece, evaluates to 0.
func (f *PMF) Eval(x float64) float64 {
	k := f.knots
	if !(x > k[0]) {
		return 0
	}
	last := len(k) - 1
	if x >= k[last] {
		return 1
	}
	// Binary search for the piece containing x.
	i := sort.SearchFloat64s(k, x)
	// k[i-1] < x <= k[i]
	x0, x1 := k[i-1], k[i]
	c0, c1 := f.cum[i-1], f.cum[i]
	return c0 + (c1-c0)*(x-x0)/(x1-x0)
}

// Alpha estimates the skew parameter at coordinate x using the paper's
// Eq. 6: α = ∆ / (CDF(x+∆) − CDF(x)). For uniform data α ≈ 1; in dense
// regions α < 1 (smaller initial window); in sparse regions α > 1. The
// result is clamped to [1/maxAlpha, maxAlpha].
func (f *PMF) Alpha(x, delta float64) float64 {
	if delta <= 0 {
		delta = DefaultDelta
	}
	rise := f.Eval(x+delta) - f.Eval(x)
	if rise <= 0 {
		// No mass ahead of x: probe backwards before giving up.
		rise = f.Eval(x) - f.Eval(x-delta)
	}
	if rise <= delta/maxAlpha {
		return maxAlpha
	}
	a := delta / rise
	if a < 1.0/maxAlpha {
		a = 1.0 / maxAlpha
	}
	return a
}

// Pieces returns the number of linear pieces in the PMF.
func (f *PMF) Pieces() int { return len(f.knots) - 1 }

// SizeBytes returns the storage footprint of the PMF (two float64 per knot),
// counted into the ZM baseline's index size.
func (f *PMF) SizeBytes() int64 { return int64(len(f.knots)) * 16 }
