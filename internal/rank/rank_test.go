package rank

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/sfc"
)

// paperPoints reproduces the 8-point example of the paper's Fig. 3.
// Original-space coordinates are read off the figure axes; what matters for
// the test is the relative order, which the figure fixes unambiguously via
// the rank-space mapping shown in Fig. 3b.
func paperPoints() []geom.Point {
	// p1..p8 with coordinates chosen to reproduce Fig. 3a's ordering:
	// x-order: p2, p1, p3, p6, p5, p4, p7, p8 (p1 and p3 share x; y breaks tie)
	// y-order: p2, p4, p5, p6, p1, p3, p8, p7
	return []geom.Point{
		{X: 2, Y: 5}, // p1
		{X: 1, Y: 1}, // p2
		{X: 2, Y: 6}, // p3 (same x as p1, larger y -> later column)
		{X: 6, Y: 2}, // p4
		{X: 5, Y: 3}, // p5
		{X: 4, Y: 4}, // p6
		{X: 7, Y: 8}, // p7
		{X: 8, Y: 7}, // p8
	}
}

func TestTransformPaperExample(t *testing.T) {
	rs := Transform(paperPoints(), sfc.Hilbert)
	wantRankX := []uint32{1, 0, 2, 5, 4, 3, 6, 7}
	wantRankY := []uint32{4, 0, 5, 1, 2, 3, 7, 6}
	for i := range rs {
		if rs[i].RankX != wantRankX[i] {
			t.Errorf("p%d RankX = %d, want %d", i+1, rs[i].RankX, wantRankX[i])
		}
		if rs[i].RankY != wantRankY[i] {
			t.Errorf("p%d RankY = %d, want %d", i+1, rs[i].RankY, wantRankY[i])
		}
	}
}

// The tie between p1 and p3 (same x) must be broken by y: p1 gets the lower
// column. This is the exact behaviour the paper describes for Fig. 3.
func TestTransformTieBreaking(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 9}, {X: 1, Y: 2}}
	rs := Transform(pts, sfc.Z)
	if rs[0].RankX != 1 || rs[1].RankX != 0 {
		t.Errorf("x-ties must break by y: got RankX %d,%d", rs[0].RankX, rs[1].RankX)
	}
	pts = []geom.Point{{X: 9, Y: 1}, {X: 2, Y: 1}}
	rs = Transform(pts, sfc.Z)
	if rs[0].RankY != 1 || rs[1].RankY != 0 {
		t.Errorf("y-ties must break by x: got RankY %d,%d", rs[0].RankY, rs[1].RankY)
	}
}

// stableRanks is the ranking Transform performed with before it sorted
// without reflection: two sort.SliceStable passes over one index slice, the
// second starting from the first's order.
func stableRanks(pts []geom.Point) (rankX, rankY []uint32) {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	rankX, rankY = make([]uint32, len(pts)), make([]uint32, len(pts))
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	for r, i := range idx {
		rankX[i] = uint32(r)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return pa.X < pb.X
	})
	for r, i := range idx {
		rankY[i] = uint32(r)
	}
	return rankX, rankY
}

// TestTransformMatchesStableSortReference: on inputs full of duplicate x,
// duplicate y and duplicate points, every input index gets the RankX, RankY
// and curve value the stable-sort ranking gave it — so curve orders, shard
// partitions and block contents are what they were — and Order, which has to
// place points of equal curve value, returns the same sequence. One trial in
// three moves coordinates by a few units of 2^-45, so that keys share their
// top 32 bits, which the ranking sorts by first, and differ below them.
func TestTransformMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(3000)
		if trial == 0 {
			n += parallelMin // x and y ranked on two goroutines
		}
		levels := 1 + rng.Intn(40) // few distinct coordinates: ties everywhere
		coord := func() float64 {
			c := float64(rng.Intn(levels)-levels/3) / 4
			if trial%3 == 1 {
				c += float64(rng.Intn(4)) * 0x1p-45
			}
			return c
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(coord(), coord())
			if i > 0 && rng.Intn(5) == 0 {
				pts[i] = pts[rng.Intn(i)] // an exact duplicate
			}
		}
		if trial%7 == 0 {
			pts[rng.Intn(n)].X = math.Copysign(0, -1) // -0 ties with +0
		}
		kind := []sfc.Kind{sfc.Hilbert, sfc.Z}[trial%2]
		wantX, wantY := stableRanks(pts)
		curve := sfc.New(kind, sfc.OrderFor(n))
		spread := func(r uint32) uint32 {
			if n == 1 {
				return 0
			}
			return uint32(uint64(r) * uint64(curve.Side()-1) / uint64(n-1))
		}
		rs := Transform(pts, kind)
		for i, r := range rs {
			if r.Point != pts[i] || r.RankX != wantX[i] || r.RankY != wantY[i] {
				t.Fatalf("trial %d, input %d %v: ranks (%d, %d), stable-sort reference (%d, %d)",
					trial, i, pts[i], r.RankX, r.RankY, wantX[i], wantY[i])
			}
			if want := curve.Value(spread(wantX[i]), spread(wantY[i])); r.CV != want {
				t.Fatalf("trial %d, input %d: curve value %d, reference %d", trial, i, r.CV, want)
			}
		}
		want := append([]Ranked(nil), rs...)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].CV != want[b].CV {
				return want[a].CV < want[b].CV
			}
			return want[a].Point.Less(want[b].Point)
		})
		for i, p := range Order(pts, kind) {
			if math.Float64bits(p.X) != math.Float64bits(want[i].Point.X) || math.Float64bits(p.Y) != math.Float64bits(want[i].Point.Y) {
				t.Fatalf("trial %d: Order()[%d] = %v, reference %v", trial, i, p, want[i].Point)
			}
		}
	}
}

// TestCurveOrderPastThirtyTwoBits: a curve past order 16 has values wider
// than the 32 bits its sort orders by first; over random ranks on curves of
// orders 17 and 20, where a run of equal top bits spans up to 4 and 256
// cells, curveOrder puts the points in the order of their curve values.
func TestCurveOrderPastThirtyTwoBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, order := range []uint{17, 20} {
		n := 1<<(order-1) + 1
		rx, ry := make([]uint32, n), make([]uint32, n)
		for i, r := range rng.Perm(n) {
			rx[i], ry[i] = uint32(i), uint32(r)
		}
		kind := []sfc.Kind{sfc.Hilbert, sfc.Z}[order%2]
		var s Sorter
		byCurve, _, got := s.curveOrder(rx, ry, kind)
		cvs := slices.Clone(s.cvs)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(a, b int) int { return cmp.Compare(cvs[a], cvs[b]) })
		if got != order {
			t.Fatalf("%d points: curve order %d, want %d", n, got, order)
		}
		for j, w := range byCurve {
			if int(uint32(w)) != want[j] {
				t.Fatalf("order %d, %v: position %d holds point %d (value %d), the values' order point %d (value %d)",
					got, kind, j, uint32(w), cvs[uint32(w)], want[j], cvs[want[j]])
			}
		}
	}
}

// TestFloatKeyOrdersLikeFloats: the radix sort's key orders coordinates as
// < does — negatives, subnormals, ±0 (one key), and the extremes.
func TestFloatKeyOrdersLikeFloats(t *testing.T) {
	vals := []float64{-math.MaxFloat64, -1e300, -2, -1, -0.5, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-300, 0.25, 0.5, 1, 3, 1e300, math.MaxFloat64}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, a := range vals {
		for _, b := range vals[:16] {
			ka, kb := floatKey(a), floatKey(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Fatalf("floatKey(%g) = %#x, floatKey(%g) = %#x: order disagrees with the floats'", a, ka, b, kb)
			}
		}
	}
}

// TestSpreadRanksIsTheDivision: the division-free spread is r·(side-1)/(n-1)
// rounded down for every rank, at every n up to 3000 and at large n.
func TestSpreadRanksIsTheDivision(t *testing.T) {
	ns := []int{1 << 20, 1<<20 + 1, 3_000_017}
	for n := 1; n <= 3000; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		side := uint64(1) << sfc.OrderFor(n)
		for r, got := range spreadRanks(make([]uint32, n), side) {
			want := uint64(0)
			if n > 1 {
				want = uint64(r) * (side - 1) / uint64(n-1)
			}
			if uint64(got) != want {
				t.Fatalf("n %d, side %d: spread(%d) = %d, want %d", n, side, r, got, want)
			}
		}
	}
}

// Rank-space invariant: RankX and RankY are each a permutation of 0..n-1
// ("each row and each column has exactly one point").
func TestTransformIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		rs := Transform(pts, sfc.Hilbert)
		seenX := make([]bool, n)
		seenY := make([]bool, n)
		for _, r := range rs {
			if r.RankX >= uint32(n) || r.RankY >= uint32(n) {
				return false
			}
			if seenX[r.RankX] || seenY[r.RankY] {
				return false
			}
			seenX[r.RankX] = true
			seenY[r.RankY] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Rank order must agree with coordinate order.
func TestTransformPreservesCoordinateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
	}
	rs := Transform(pts, sfc.Hilbert)
	for i := 0; i < len(rs); i++ {
		for j := i + 1; j < len(rs); j++ {
			if rs[i].Point.X < rs[j].Point.X && rs[i].RankX > rs[j].RankX {
				t.Fatalf("x-order violated between %v and %v", rs[i], rs[j])
			}
			if rs[i].Point.Y < rs[j].Point.Y && rs[i].RankY > rs[j].RankY {
				t.Fatalf("y-order violated between %v and %v", rs[i], rs[j])
			}
		}
	}
}

func TestTransformEmptyAndSingle(t *testing.T) {
	if got := Transform(nil, sfc.Hilbert); len(got) != 0 {
		t.Errorf("Transform(nil) returned %d entries", len(got))
	}
	rs := Transform([]geom.Point{{X: 3, Y: 4}}, sfc.Hilbert)
	if len(rs) != 1 || rs[0].RankX != 0 || rs[0].RankY != 0 {
		t.Errorf("single point transform wrong: %+v", rs)
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	pts := paperPoints()
	cp := make([]geom.Point, len(pts))
	copy(cp, pts)
	Transform(pts, sfc.Hilbert)
	for i := range pts {
		if pts[i] != cp[i] {
			t.Fatalf("input mutated at %d: %v != %v", i, pts[i], cp[i])
		}
	}
}

func TestOrderIsPermutationOfInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	ordered := Order(pts, sfc.Hilbert)
	if len(ordered) != len(pts) {
		t.Fatalf("Order changed cardinality: %d != %d", len(ordered), len(pts))
	}
	a := append([]geom.Point(nil), pts...)
	b := append([]geom.Point(nil), ordered...)
	sortPoints(a)
	sortPoints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Order is not a permutation (mismatch at %d)", i)
		}
	}
}

func sortPoints(ps []geom.Point) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// Curve values in rank space must be distinct: one point per cell.
func TestCurveValuesDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64() * rng.Float64()}
	}
	rs := Transform(pts, sfc.Hilbert)
	seen := make(map[uint64]bool, len(rs))
	for _, r := range rs {
		if seen[r.CV] {
			t.Fatalf("duplicate curve value %d", r.CV)
		}
		seen[r.CV] = true
	}
}

// The headline claim of §3.1: rank-space ordering produces a much smaller
// variance in curve-value gaps than ordering by raw-grid Z-values, on skewed
// data. This is the micro-version of ablation A1.
func TestRankSpaceReducesGapVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	n := 2000
	pts := make([]geom.Point, n)
	for i := range pts {
		y := rng.Float64()
		pts[i] = geom.Point{X: rng.Float64(), Y: y * y * y * y} // Skewed: y^4
	}

	// Rank-space gaps.
	rs := Transform(pts, sfc.Z)
	rankCVs := make([]uint64, n)
	for i, r := range rs {
		rankCVs[i] = r.CV
	}
	sort.Slice(rankCVs, func(i, j int) bool { return rankCVs[i] < rankCVs[j] })
	rankStats := Gaps(rankCVs)

	// Raw-grid Z-value gaps at the same resolution.
	curve := sfc.New(sfc.Z, sfc.OrderFor(n))
	side := float64(curve.Side() - 1)
	raw := make([]uint64, n)
	for i, p := range pts {
		raw[i] = curve.Value(uint32(p.X*side), uint32(p.Y*side))
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	rawStats := Gaps(raw)

	if rankStats.Variance >= rawStats.Variance {
		t.Errorf("rank-space gap variance %.1f not smaller than raw %.1f",
			rankStats.Variance, rawStats.Variance)
	}
}

func TestGapsEdgeCases(t *testing.T) {
	if got := Gaps(nil); got != (CurveGapStats{}) {
		t.Errorf("Gaps(nil) = %+v", got)
	}
	if got := Gaps([]uint64{7}); got != (CurveGapStats{}) {
		t.Errorf("Gaps(single) = %+v", got)
	}
	got := Gaps([]uint64{0, 5, 6, 20})
	if got.Min != 1 || got.Max != 14 {
		t.Errorf("Gaps min/max = %v/%v, want 1/14", got.Min, got.Max)
	}
	wantMean := (5.0 + 1 + 14) / 3
	if got.Mean != wantMean {
		t.Errorf("Gaps mean = %v, want %v", got.Mean, wantMean)
	}
}

var orderSink []geom.Point

// BenchmarkOrder is the rank-space ordering of a leaf (10k points, the
// paper's N) and of a sharded build's partition (200k, embed-read's set-up).
func BenchmarkOrder(b *testing.B) {
	for _, n := range []int{10_000, 200_000} {
		pts := dataset.Generate(dataset.Skewed, n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				orderSink = Order(pts, sfc.Hilbert)
			}
		})
	}
}

// tiedPoints returns n points that tie everywhere Ranks breaks ties: few
// distinct coordinates (duplicate x, duplicate y), exact copies, and −0
// beside +0 on either axis, which compare equal but keep their bits.
func tiedPoints(rng *rand.Rand, n int) []geom.Point {
	levels := 1 + rng.Intn(12)
	coord := func() float64 {
		c := float64(rng.Intn(levels)) / 4
		if c == 0 && rng.Intn(2) == 0 {
			c = math.Copysign(0, -1)
		}
		return c
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(coord(), coord())
		if i > 0 && rng.Intn(5) == 0 {
			pts[i] = pts[rng.Intn(i)] // an exact copy
		}
	}
	return pts
}

// bitsEqual reports whether two point lists hold the same bits in the same
// order: −0 and +0 differ.
func bitsEqual(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) || math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// refOrderOnGrid is the leaf ordering a build used before ranks were
// inherited, written from Transform: the points sorted by curve value, each
// with its x and y rank spread over the curve's grid by the division, and
// the curve's order.
func refOrderOnGrid(pts []geom.Point, kind sfc.Kind) (out []geom.Point, cols, rows []uint32, order uint) {
	n := len(pts)
	curve := sfc.New(kind, sfc.OrderFor(n))
	spread := func(r uint32) uint32 {
		if n <= 1 {
			return 0
		}
		return uint32(uint64(r) * uint64(curve.Side()-1) / uint64(n-1))
	}
	rs := Transform(pts, kind)
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].CV < rs[b].CV })
	for _, r := range rs {
		out, cols, rows = append(out, r.Point), append(cols, spread(r.RankX)), append(rows, spread(r.RankY))
	}
	return out, cols, rows, curve.Order()
}

// checkInherited cuts pts into groups — group[i] is point i's — and checks
// that every group's ranks inherited from Ranks(pts) are Ranks of the group
// in input order, and that OrderRanked orders the group from them as the
// reference ordering does.
func checkInherited(t *testing.T, pts []geom.Point, group []int32, groups int, kind sfc.Kind) {
	t.Helper()
	n := len(pts)
	rx, ry := Ranks(pts)
	byRank := make([]int32, n)
	next := make([]uint32, groups)
	for _, r := range [][]uint32{rx, ry} {
		for i, v := range r {
			byRank[v] = int32(i)
		}
		Inherit(r, byRank, group, next)
	}
	var s Sorter
	for g := range groups {
		var members []geom.Point
		var gx, gy []uint32
		for i, p := range pts {
			if group[i] == int32(g) {
				members, gx, gy = append(members, p), append(gx, rx[i]), append(gy, ry[i])
			}
		}
		wantX, wantY := Ranks(members)
		if !slices.Equal(gx, wantX) || !slices.Equal(gy, wantY) {
			t.Fatalf("group %d of %d (%d points): inherited ranks x %v y %v, Ranks of the group x %v y %v", g, groups, len(members), gx, gy, wantX, wantY)
		}
		m := len(members)
		out, cols, rows := make([]geom.Point, m), make([]uint32, m), make([]uint32, m)
		order := s.OrderRanked(members, gx, gy, kind, out, cols, rows)
		refOut, refCols, refRows, refOrder := refOrderOnGrid(members, kind)
		if !bitsEqual(out, refOut) || !slices.Equal(cols, refCols) || !slices.Equal(rows, refRows) || order != refOrder {
			t.Fatalf("group %d of %d: OrderRanked from inherited ranks gives %v %v %v order %d, the reference %v %v %v order %d",
				g, groups, out, cols, rows, order, refOut, refCols, refRows, refOrder)
		}
	}
}

// TestInheritIsRanksOfEachGroup: for points full of duplicate x, duplicate
// y, exact copies and −0 beside +0, cut into random groups that keep their
// points in input order, every group's inherited ranks are Ranks of the
// group, and one Sorter, reused group after group, orders each group from
// them as the reference leaf ordering does.
func TestInheritIsRanksOfEachGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := range 200 {
		n := rng.Intn(400)
		pts := tiedPoints(rng, n)
		groups := 1 + rng.Intn(9)
		group := make([]int32, n)
		for i := range group {
			group[i] = int32(rng.Intn(groups))
		}
		checkInherited(t, pts, group, groups, []sfc.Kind{sfc.Hilbert, sfc.Z}[trial%2])
	}
}

// TestRunsAreRunsOfTheCurveOrder: Runs' runs are Order's points cut into
// runs, each with the ranks Ranks gives it — full ties, −0 beside +0
// included, broken by position in it — bit for bit, and no more room than it
// has points.
func TestRunsAreRunsOfTheCurveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := range 100 {
		n := rng.Intn(3000)
		if trial == 0 {
			n += parallelMin
		}
		pts := tiedPoints(rng, n)
		kind := []sfc.Kind{sfc.Hilbert, sfc.Z}[trial%2]
		runs := 1 + rng.Intn(5)
		ordered := Order(pts, kind)
		per := max(1, (n+runs-1)/runs)
		got := Runs(pts, kind, runs)
		if len(got) != runs {
			t.Fatalf("trial %d: %d runs, want %d", trial, len(got), runs)
		}
		for g, r := range got {
			lo := min(g*per, n)
			want := ordered[lo:min(lo+per, n)]
			wantX, wantY := Ranks(want)
			if cap(r.Points) != len(r.Points) || !bitsEqual(r.Points, want) || !slices.Equal(r.RX, wantX) || !slices.Equal(r.RY, wantY) {
				t.Fatalf("trial %d (%d points), run %d of %d: %d points (room for %d), not Order's run with its Ranks", trial, n, g, runs, len(r.Points), cap(r.Points))
			}
		}
	}
}

// FuzzInherit: points and groups from the fuzz bytes, two bytes a point —
// coordinates on an 8 × 8 lattice, the sign of a zero and the group — and
// every group's inherited ranks must be Ranks of the group, and its
// ordering from them the reference's.
func FuzzInherit(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0, 0x08, 0x01, 0x88, 0x01})
	f.Add([]byte{0x12, 0x40, 0x12, 0xc0, 0x21, 0x02, 0x21, 0x82, 0x33, 0x03})
	f.Add(bytes.Repeat([]byte{0x00, 0x80, 0x01, 0x81}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/2, 512)
		pts := make([]geom.Point, n)
		group := make([]int32, n)
		coord := func(v byte, neg bool) float64 {
			c := float64(v & 7)
			if neg {
				c = -c // −0 when v&7 is 0
			}
			return c
		}
		for i := range pts {
			a, b := data[2*i], data[2*i+1]
			pts[i] = geom.Pt(coord(a, a&0x80 != 0), coord(a>>3, b&0x80 != 0))
			group[i] = int32(b & 3)
		}
		kind := sfc.Hilbert
		if len(data)%2 == 1 {
			kind = sfc.Z
		}
		checkInherited(t, pts, group, 4, kind)
	})
}
