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
//
// A build ranks its points once. A node's ranks are those of its parent
// restricted to the node's points (Inherit), and a leaf orders its points
// from the ranks it inherits (Sorter.OrderRanked); a sharded build cuts its
// runs from one ranking of all points (Runs). Every ranking breaks a full
// tie — copies, or −0 beside +0 — by one fixed order of the points, so each
// node's inherited ranks are the ones Ranks would give its points in that
// order.
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
	var s Sorter
	cvs, _, _ := s.values(rx, ry, kind)
	out := make([]Ranked, len(pts))
	for i, p := range pts {
		out[i] = Ranked{Point: p, RankX: rx[i], RankY: ry[i], CV: cvs[i]}
	}
	return out
}

// parallelMin is the input size from which ranks sorts x and y on two
// goroutines. A build ranks its points once, before anything else of it
// runs — at the root of an index, or over all points for the runs of a
// sharded build — so the other core is idle then: on two cores, ranking on
// one goroutine made embed-write's set-up (shard:BenchmarkNew100kOSM) 10 %
// slower and a 100k-point build 6 % slower, in five rounds of six
// (EXPERIMENTS.md, "Ranked once"). Below it a ranking takes well under a
// millisecond.
const parallelMin = 1 << 15

// Ranks returns every input point's rank by x (ties by y) and by y (ties by
// x): its column and row in rank space. Duplicate points rank in input
// order — the input index is the last tie-break — so each ranking has one
// possible outcome, whatever sorts it. The input slice is not modified.
// From parallelMin points on, the x ranking runs on a second goroutine.
func Ranks(pts []geom.Point) (rx, ry []uint32) {
	n := len(pts)
	rx, ry = make([]uint32, n), make([]uint32, n)
	buf := make([]uint64, 2*n)
	if n < parallelMin {
		rankBy(pts, false, rx, buf[:n], buf[n:])
		rankBy(pts, true, ry, buf[:n], buf[n:])
		return rx, ry
	}
	done := make(chan struct{})
	go func() {
		own := make([]uint64, 2*n)
		rankBy(pts, false, rx, own[:n], own[n:])
		close(done)
	}()
	rankBy(pts, true, ry, buf[:n], buf[n:])
	<-done
	return rx, ry
}

// rankBy writes every input point's rank by x into rank, or by y when byY.
// It sorts the points by the top 32 bits of their coordinate's key, each
// held above its index in one word (sortTop). In each run of equal top
// bits it then puts the key's low 32 bits above the index instead and sorts
// the words, and sorts each run of equal keys by the other coordinate and
// the index: a point is looked up once if it shares its top bits, and not
// at all if it does not. es and buf, each as long as pts, are its sort
// buffers.
func rankBy(pts []geom.Point, byY bool, rank []uint32, es, buf []uint64) {
	coord, other := func(i uint32) float64 { return pts[i].X }, func(i uint32) float64 { return pts[i].Y }
	if byY {
		coord, other = other, coord
	}
	for i := range pts {
		es[i] = floatKey(coord(uint32(i)))>>32<<32 | uint64(i)
	}
	es = sortTop(es, buf)
	for lo := 0; lo < len(es); {
		hi := lo + 1
		for hi < len(es) && es[hi]>>32 == es[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			run := es[lo:hi]
			for j, e := range run {
				run[j] = floatKey(coord(uint32(e)))<<32 | e&(1<<32-1)
			}
			slices.Sort(run)
			for a := 0; a < len(run); {
				b := a + 1
				for b < len(run) && run[b]>>32 == run[a]>>32 {
					b++
				}
				if b-a > 1 {
					slices.SortFunc(run[a:b], func(x, y uint64) int {
						i, j := uint32(x), uint32(y)
						return cmp.Or(cmp.Compare(other(i), other(j)), cmp.Compare(i, j))
					})
				}
				a = b
			}
		}
		lo = hi
	}
	for r, e := range es {
		rank[uint32(e)] = uint32(r)
	}
}

// sortTop sorts es ascending by their top 32 bits, equal ones in their order
// in es: a least-significant-digit radix sort through buf (as long as es),
// in passes of 11, 11 and 10 bits. A digit that every word shares costs no
// pass, so words whose top bits hold a value of 22 bits or fewer take two.
// Every sort of this package is this one, on a key's top 32 bits held above
// an index. It returns the sorted slice, which is es or buf.
func sortTop(es, buf []uint64) []uint64 {
	const bits = 11
	var counts [3][1 << bits]uint32
	shift := func(d int) uint64 { return 32 + bits*uint64(d) }
	for _, e := range es {
		for d := range counts {
			counts[d][e>>shift(d)&(1<<bits-1)]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if len(es) == 0 || int(c[es[0]>>shift(d)&(1<<bits-1)]) == len(es) {
			continue
		}
		var sum uint32
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, e := range es {
			b := e >> shift(d) & (1<<bits - 1)
			buf[c[b]] = e
			c[b]++
		}
		es, buf = buf, es
	}
	return es
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

// spreadRanks writes r·(side-1)/(n-1), rounded down, to spread[r] for every
// rank r of n = len(spread), and returns spread: the order-preserving spread
// of ranks 0..n-1 over 0..side-1, stepped without a division per rank
// (q·(n-1) + rem = r·(side-1) throughout).
//
// The paper's rank space is an exact n×n grid; SFCs need a power-of-two
// side, so ranks are spread order-preservingly across the 2^⌈log2 n⌉ grid.
// Without the spreading, the curve's excursions through the empty band
// beyond rank n-1 would create the very gap unevenness the rank space
// exists to remove (cf. Figs. 2–3).
func spreadRanks(spread []uint32, side uint64) []uint32 {
	n := len(spread)
	if n <= 1 {
		clear(spread)
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
// the given curve kind: the ordering the HRR bulk loader packs. Distinct
// rank cells have distinct curve values, so the order has one possible
// outcome and a radix sort of the values finds it.
func Order(pts []geom.Point, kind sfc.Kind) []geom.Point {
	out, _, _ := order(pts, kind)
	return out
}

// order is Order that also returns every sorted point's ranks by x and by
// y among pts, as Ranks gives them.
func order(pts []geom.Point, kind sfc.Kind) (out []geom.Point, rx, ry []uint32) {
	x, y := Ranks(pts)
	var s Sorter
	byCurve, _, _ := s.curveOrder(x, y, kind)
	out, rx, ry = make([]geom.Point, len(pts)), make([]uint32, len(pts)), make([]uint32, len(pts))
	for j, w := range byCurve {
		i := uint32(w)
		out[j], rx[j], ry[j] = pts[i], x[i], y[i]
	}
	return out, rx, ry
}

// Run is one run of Runs: its points, and their ranks by x and by y among
// them.
type Run struct {
	Points []geom.Point
	RX, RY []uint32
}

// Runs cuts Order's points into the given number of runs of ⌈n/runs⌉, each
// with the ranks Ranks gives its points in that order (which breaks a full
// tie — copies, or −0 beside +0 — by position in it): a sharded build hands
// one to each shard. The runs' points share one fresh slice, each capped at
// its own end, and so do their ranks.
func Runs(pts []geom.Point, kind sfc.Kind, runs int) []Run {
	n := len(pts)
	out, ox, oy := order(pts, kind)
	// The ranks of the input order are those of the curve order but for
	// full ties; then each run inherits its ranks.
	byRank := make([]int32, n)
	retie(out, ox, oy, byRank)
	per := max(1, (n+runs-1)/runs)
	group := make([]int32, n)
	for p := range group {
		group[p] = int32(p / per)
	}
	next := make([]uint32, runs)
	Inherit(ox, byRank, group, next)
	for p, r := range oy {
		byRank[r] = int32(p)
	}
	Inherit(oy, byRank, group, next)
	parts := make([]Run, runs)
	for g := range parts {
		lo := min(g*per, n)
		hi := min(lo+per, n)
		parts[g] = Run{out[lo:hi:hi], ox[lo:hi:hi], oy[lo:hi:hi]}
	}
	return parts
}

// retie re-deals the ranks of every set of points that tie on both
// coordinates by the points' positions in pts. Ranks breaks such a full tie
// by input position, so once the points are moved, ranks carried over from
// their old positions are those of Ranks(pts) everywhere but in these sets.
// The points of a set are equal as values — copies, or −0 beside +0 — and
// take consecutive ranks by x and consecutive ranks by y; each rank goes
// back to them in order of position. byX, as long as pts, is left listing
// the points by their x rank.
func retie(pts []geom.Point, rx, ry []uint32, byX []int32) {
	for i, r := range rx {
		byX[r] = int32(i)
	}
	for lo := 0; lo < len(byX); {
		hi := lo + 1
		for hi < len(byX) && pts[byX[hi]] == pts[byX[lo]] {
			hi++
		}
		if set := byX[lo:hi]; len(set) > 1 {
			slices.Sort(set)
			y := ry[set[0]]
			for _, i := range set {
				y = min(y, ry[i])
			}
			for j, i := range set {
				rx[i], ry[i] = uint32(lo+j), y+uint32(j)
			}
		}
		lo = hi
	}
}

// Inherit turns ranks among a set of points into ranks within groups of it.
// byRank lists the points by rank, byRank[r] being the point of rank r, and
// group[i] is point i's group, below len(next). Inherit writes to sub[i]
// the rank of point i within its group: the number of points of its group
// that rank below it. sub may hold the ranks byRank was made from; next is
// Inherit's working memory, one counter a group.
//
// Ranks breaks full ties by input position last. A group that keeps its
// points in their order in the set therefore ranks them, under the same
// rule, as the set does, and its inherited ranks are what Ranks of the group
// gives, by x for x ranks and by y for y ranks: no point is compared again.
func Inherit(sub []uint32, byRank, group []int32, next []uint32) {
	clear(next)
	for _, i := range byRank {
		g := group[i]
		sub[i] = next[g]
		next[g]++
	}
}

// Sorter orders ranked points by their curve value, through buffers it
// keeps, so that a build ordering leaf after leaf allocates them once. The
// zero value is ready to use.
type Sorter struct {
	cvs, words, buf []uint64
	spread          []uint32
}

// OrderRanked writes pts, whose ranks by x and by y as Ranks gives them are
// rx and ry, to out in rank-space curve order, and every ordered point's
// column and row on the curve's grid — its x and y rank, spread over the
// grid's side — to cols and rows; it returns the curve's order. It places
// the points as Order does, from ranks a caller has already: what an RSMI
// leaf cuts its aligned cells from.
func (s *Sorter) OrderRanked(pts []geom.Point, rx, ry []uint32, kind sfc.Kind, out []geom.Point, cols, rows []uint32) (order uint) {
	byCurve, spread, order := s.curveOrder(rx, ry, kind)
	for j, w := range byCurve {
		i := uint32(w)
		out[j], cols[j], rows[j] = pts[i], spread[rx[i]], spread[ry[i]]
	}
	return order
}

// curveOrder returns words whose low 32 bits are the indices of the points
// of ranks rx and ry in curve order, with the grid coordinate of every rank
// and the curve's order. It sorts each point's curve value's top 32 bits
// held above its index; a curve of order 16 or less has no more bits, and
// past it each run of equal top bits is sorted again on the values' low
// bits.
func (s *Sorter) curveOrder(rx, ry []uint32, kind sfc.Kind) (byCurve []uint64, spread []uint32, order uint) {
	cvs, spread, order := s.values(rx, ry, kind)
	shift := max(2*order, 32) - 32
	s.words = slices.Grow(s.words[:0], len(cvs))[:len(cvs)]
	s.buf = slices.Grow(s.buf[:0], len(cvs))[:len(cvs)]
	for i, cv := range cvs {
		s.words[i] = cv>>shift<<32 | uint64(i)
	}
	byCurve = sortTop(s.words, s.buf)
	for lo := 0; shift > 0 && lo < len(byCurve); {
		hi := lo + 1
		for hi < len(byCurve) && byCurve[hi]>>32 == byCurve[lo]>>32 {
			hi++
		}
		if run := byCurve[lo:hi]; len(run) > 1 {
			for j, w := range run {
				run[j] = cvs[uint32(w)]&(1<<shift-1)<<32 | w&(1<<32-1)
			}
			slices.Sort(run)
		}
		lo = hi
	}
	return byCurve, spread, order
}

// values returns in s.cvs the curve value of every point of ranks rx and ry,
// in input order, with the grid coordinate of every rank and the curve's
// order.
func (s *Sorter) values(rx, ry []uint32, kind sfc.Kind) (cvs []uint64, spread []uint32, order uint) {
	n := len(rx)
	curve := sfc.New(kind, sfc.OrderFor(n))
	s.spread = spreadRanks(slices.Grow(s.spread[:0], n)[:n], uint64(curve.Side()))
	s.cvs = slices.Grow(s.cvs[:0], n)[:n]
	for i := range s.cvs {
		s.cvs[i] = curve.Value(s.spread[rx[i]], s.spread[ry[i]])
	}
	return s.cvs, s.spread, curve.Order()
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
