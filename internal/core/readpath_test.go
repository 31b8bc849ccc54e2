package core

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"rsmi/internal/cdf"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// The read path searches a block only when its cached MBR admits the probe,
// drives block walks through a cursor, runs kNN rounds best-first, and reads
// the blocks of a probe's leaf cells. The reference below is the plain path
// — closure scans, every block of a range searched point by point, kNN in
// list order behind a visited map — kept here, uncounted and ungated, so the
// property test can demand the same answers and the same block-access counts
// from the read path. The cells' blocks are derived here by brute force:
// a cell's from the base blocks its build points were packed in, an empty
// cell's from how many build points precede it; and a window's cells from
// counting the cuts its sides are not Less than, each cell's curve value
// read off a fresh curve.

// refScan walks base blocks [begin, end] and their overflow chains in list
// order, counting every block it hands to fn in *reads.
func refScan(t *RSMI, begin, end int, reads *int, fn func(b *store.Block, base int) bool) {
	if begin > end || begin < 0 || t.baseBlocks == 0 {
		return
	}
	base := begin
	for cur := begin; cur != store.NilBlock; {
		b := t.store.Peek(cur)
		if b == nil {
			return
		}
		if !b.Inserted {
			base = b.ID
		}
		*reads++
		if !fn(b, base) {
			return
		}
		if nb := t.store.Peek(b.Next); nb == nil || (!nb.Inserted && nb.ID > end) {
			return
		}
		cur = b.Next
	}
}

// refFind searches every block of [lo, hi] for q, MBR or no MBR.
func refFind(t *RSMI, q geom.Point, lo, hi int, reads *int) (found *store.Block, base int) {
	refScan(t, lo, hi, reads, func(b *store.Block, bs int) bool {
		if b.Find(q) >= 0 {
			found, base = b, bs
			return false
		}
		return true
	})
	return found, base
}

// heldPoint is a point an index has held, the base block it was filed
// under, and whether a build packed it there.
type heldPoint struct {
	p     geom.Point
	base  int
	built bool
}

// filed returns every point of t with the base block of the block holding
// it, walking the whole block list; right after a build, the points of base
// blocks are the ones the build packed.
func filed(t *RSMI) []heldPoint {
	var out []heldPoint
	refScan(t, 0, t.baseBlocks-1, new(int), func(b *store.Block, base int) bool {
		b.Points(func(p geom.Point) { out = append(out, heldPoint{p, base, !b.Inserted}) })
		return true
	})
	return out
}

// cellKey names one cell of one leaf.
type cellKey struct {
	leaf *node
	cell int
}

// deriveCells measures, for every cell of every leaf, the base blocks
// [lo, hi] its held build points were packed in; and for a cell that took no
// build point, the one block its position falls in: after every build point
// of its leaf in the cells before it in curve order, within the leaf's run.
func deriveCells(t *RSMI, held []heldPoint) map[cellKey][2]int {
	cells := map[cellKey][2]int{}
	counts := map[cellKey]int{}
	for _, h := range held {
		if !h.built {
			continue
		}
		leaf := t.descend(h.p)
		k := cellKey{leaf, t.leafCell(leaf, h.p)}
		counts[k]++
		r, ok := cells[k]
		if !ok {
			r = [2]int{h.base, h.base}
		}
		cells[k] = [2]int{min(r[0], h.base), max(r[1], h.base)}
	}
	walkLeaves(t.root, func(leaf *node) {
		before := 0
		for c := range 1 << (2 * leaf.order) {
			k := cellKey{leaf, c}
			if _, ok := cells[k]; !ok {
				b := leaf.firstBlock + min(before/t.opts.BlockCapacity, leaf.numBlocks-1)
				cells[k] = [2]int{b, b}
			}
			before += counts[k]
		}
	})
	return cells
}

// refPoint scans the derived blocks of q's cell for q.
func refPoint(t *RSMI, cells map[cellKey][2]int, q geom.Point, reads *int) bool {
	leaf := t.descend(q)
	if leaf == nil {
		return false
	}
	r := cells[cellKey{leaf, t.leafCell(leaf, q)}]
	b, _ := refFind(t, q, r[0], r[1], reads)
	return b != nil
}

// refLeaves returns, in block order, the leaves under n whose MBR meets q.
func refLeaves(n *node, q geom.Rect) []*node {
	if n == nil || q.IsEmpty() || n.mbr.IsEmpty() ||
		n.mbr.MaxX < q.MinX || q.MaxX < n.mbr.MinX || n.mbr.MaxY < q.MinY || q.MaxY < n.mbr.MinY {
		return nil
	}
	if n.leaf {
		return []*node{n}
	}
	var out []*node
	for _, c := range n.children {
		out = append(out, refLeaves(c, q)...)
	}
	return out
}

// refNotBefore counts the cuts p is not less than, one comparison each.
func refNotBefore(cuts []geom.Point, p geom.Point, less func(a, b geom.Point) bool) int {
	n := 0
	for _, c := range cuts {
		if !less(p, c) {
			n++
		}
	}
	return n
}

// refCellRect returns, ascending, the curve values of leaf's cells from the
// column of (MinX, −∞) to that of (MaxX, +∞) and from the row of (−∞, MinY)
// to that of (+∞, MaxY) of q, read off a fresh curve of the leaf's order.
func refCellRect(t *RSMI, leaf *node, q geom.Rect) []int {
	inf := math.Inf(1)
	c0, c1 := refNotBefore(leaf.cols, geom.Pt(q.MinX, -inf), geom.Point.Less), refNotBefore(leaf.cols, geom.Pt(q.MaxX, inf), geom.Point.Less)
	r0, r1 := refNotBefore(leaf.rowCuts, geom.Pt(-inf, q.MinY), lessYX), refNotBefore(leaf.rowCuts, geom.Pt(inf, q.MaxY), lessYX)
	var out []int
	for c := c0; c <= c1; c++ {
		for r := r0; r <= r1; r++ {
			v := 0
			if leaf.order > 0 {
				v = int(sfc.New(t.opts.Curve, uint(leaf.order)).Value(uint32(c), uint32(r)))
			}
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// refBases returns, ascending and once each, the base blocks of the derived
// blocks of the cells of leaf that q's sides bound.
func refBases(t *RSMI, cells map[cellKey][2]int, leaf *node, q geom.Rect) []int {
	var out []int
	for _, c := range refCellRect(t, leaf, q) {
		r := cells[cellKey{leaf, c}]
		for b := r[0]; b <= r[1]; b++ {
			out = append(out, b)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// refWindow is Algorithm 2 leaf by leaf: in every leaf whose MBR meets q,
// the derived blocks of the cells q's sides bound, each base block scanned
// once with its chain, in list order.
func refWindow(t *RSMI, cells map[cellKey][2]int, q geom.Rect, reads *int) []geom.Point {
	var out []geom.Point
	for _, leaf := range refLeaves(t.root, q) {
		for _, b := range refBases(t, cells, leaf, q) {
			refScan(t, b, b, reads, func(b *store.Block, _ int) bool {
				b.Points(func(p geom.Point) {
					if q.Contains(p) {
						out = append(out, p)
					}
				})
				return true
			})
		}
	}
	return out
}

// refKNN is Algorithm 3 over refWindow's blocks, in list order, pruned one
// by one against the k-th candidate, then the top-up pass when the k-th
// circle leaves the region: the blocks of the cells of every leaf meeting
// the circle's bounding square that lie nearer than the k-th candidate,
// each counted as read. It returns the squared distances of its answer,
// which — unlike the order of equidistant points — do not depend on the
// order blocks are searched in.
func refKNN(t *RSMI, cells map[cellKey][2]int, q geom.Point, k int, reads *int) []float64 {
	if k <= 0 || t.n == 0 {
		return nil
	}
	k = min(k, t.n)
	frac := math.Sqrt(float64(k) / float64(t.n))
	width := t.pmfX.Alpha(q.X, cdf.DefaultDelta) * frac
	height := t.pmfY.Alpha(q.Y, cdf.DefaultDelta) * frac
	if d := math.Sqrt(t.root.mbr.MinDist2(q)); d > 0 {
		width, height = max(width, 2*d), max(height, 2*d)
	}
	var best []float64 // ascending, at most k
	worst := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[k-1]
	}
	offer := func(b *store.Block) {
		b.Points(func(p geom.Point) {
			d := q.Dist2(p)
			if d >= worst() {
				return
			}
			i := len(best)
			best = append(best, d)
			for ; i > 0 && best[i-1] > d; i-- {
				best[i] = best[i-1]
			}
			best[i] = d
			best = best[:min(len(best), k)]
		})
	}
	visited := map[int]bool{}
	for round := 0; round < 64; round++ {
		region := geom.RectAround(q, width, height)
		for _, leaf := range refLeaves(t.root, region) {
			for _, base := range refBases(t, cells, leaf, region) {
				refScan(t, base, base, reads, func(b *store.Block, _ int) bool {
					if visited[b.ID] {
						return true
					}
					visited[b.ID] = true
					if len(best) < k || t.blockMBR[b.ID].MinDist2(q) < worst() {
						offer(b)
					}
					return true
				})
			}
		}
		if len(best) < k {
			width, height = 2*width, 2*height
			continue
		}
		kth := math.Sqrt(worst())
		if kth > math.Sqrt(width*width+height*height)/2 {
			width, height = 2*kth, 2*kth
			continue
		}
		if kth > math.Min(width, height)/2 {
			square, bound := geom.RectAround(q, 2*kth, 2*kth), worst()
			var near []*store.Block
			for _, leaf := range refLeaves(t.root, square) {
				for _, base := range refBases(t, cells, leaf, square) {
					refScan(t, base, base, new(int), func(b *store.Block, _ int) bool {
						if !visited[b.ID] && t.blockMBR[b.ID].MinDist2(q) < bound {
							visited[b.ID] = true
							near = append(near, b)
						}
						return true
					})
				}
			}
			*reads += len(near)
			for _, b := range near {
				offer(b)
			}
		}
		break
	}
	return best
}

// readPathWorld is an index under test beside the Linear oracle and the
// list of points both hold, and every point the index has held since its
// last build with the base block it was filed under.
type readPathWorld struct {
	t      *testing.T
	rng    *rand.Rand
	idx    *RSMI
	oracle *index.Linear
	live   []geom.Point
	gone   []geom.Point
	held   []heldPoint
}

func (w *readPathWorld) insert(p geom.Point) {
	w.idx.Insert(p)
	w.oracle.Insert(p)
	w.live = append(w.live, p)
	for _, h := range filed(w.idx) {
		if h.p == p {
			h.built = false
			w.held = append(w.held, h)
		}
	}
}

func (w *readPathWorld) deleteAt(i int) {
	p := w.live[i]
	if !w.idx.Delete(p) || !w.oracle.Delete(p) {
		w.t.Fatalf("delete of indexed point %v refused", p)
	}
	if w.idx.Delete(p) {
		w.t.Fatalf("second delete of %v succeeded", p)
	}
	w.live[i] = w.live[len(w.live)-1]
	w.live = w.live[:len(w.live)-1]
	w.gone = append(w.gone, p)
}

// accesses runs fn and returns the block accesses it counted.
func (w *readPathWorld) accesses(fn func()) int {
	before := w.idx.Accesses()
	fn()
	return int(w.idx.Accesses() - before)
}

// check compares point, window and kNN answers, and their block-access
// counts, with the reference path and the oracle's contract.
func (w *readPathWorld) check(stage string) {
	t, idx := w.t, w.idx
	t.Helper()
	if idx.Len() != w.oracle.Len() {
		t.Fatalf("%s: Len %d, oracle %d", stage, idx.Len(), w.oracle.Len())
	}
	// Points: every live point found, deleted and random points as the
	// oracle says, and the same blocks read as the ungated scan of the
	// derived blocks of the probe's cell. Every point the index has held was
	// filed under a base block of its cell.
	probes := append([]geom.Point(nil), w.live...)
	probes = append(probes, w.gone...)
	for i := 0; i < 200; i++ {
		probes = append(probes, geom.Pt(w.rng.Float64(), w.rng.Float64()))
	}
	cells := deriveCells(idx, w.held)
	for _, h := range w.held {
		leaf := idx.descend(h.p)
		if r := cells[cellKey{leaf, idx.leafCell(leaf, h.p)}]; h.base < r[0] || h.base > r[1] {
			t.Fatalf("%s: %v was filed under block %d, outside its cell's blocks %v", stage, h.p, h.base, r)
		}
	}
	for _, p := range probes {
		var got, want bool
		var refReads int
		reads := w.accesses(func() { got = idx.PointQuery(p) })
		want = refPoint(idx, cells, p, &refReads)
		if got != want || got != w.oracle.PointQuery(p) {
			t.Fatalf("%s: PointQuery(%v) = %v, reference %v, oracle %v", stage, p, got, want, w.oracle.PointQuery(p))
		}
		if reads != refReads {
			t.Fatalf("%s: PointQuery(%v) read %d blocks, reference %d", stage, p, reads, refReads)
		}
	}
	for i := 0; i < 60; i++ {
		c := w.live[w.rng.Intn(len(w.live))]
		w.checkWindow(stage, cells, geom.RectAround(c, 0.3*w.rng.Float64(), 0.3*w.rng.Float64()))
	}
	// Windows spanned by two live points, one below and left of the other:
	// their corners and sides pass through indexed points, which the cells
	// the sides bound must hold, so both points are in the answer.
	spanned := 0
	for tries := 0; tries < 2000 && spanned < 20; tries++ {
		a := w.live[w.rng.Intn(len(w.live))]
		if tries%2 == 1 { // the newest points, a hot spot's among them
			a = w.live[len(w.live)-1-w.rng.Intn(min(len(w.live), 200))]
		}
		for _, b := range w.oracle.KNN(a, 8) {
			if b.X <= a.X || b.Y <= a.Y {
				continue
			}
			q := geom.NewRect(a, b)
			got := w.checkWindow(stage, cells, q)
			if !slices.Contains(got, a) || !slices.Contains(got, b) {
				t.Fatalf("%s: window %v spanned by %v and %v misses one of them", stage, q, a, b)
			}
			spanned++
		}
	}
	if spanned < 20 {
		t.Fatalf("%s: found only %d windows spanned by two points", stage, spanned)
	}
	for i := 0; i < 40; i++ {
		q := geom.Pt(w.rng.Float64(), w.rng.Float64())
		k := 1 + w.rng.Intn(40)
		var got []geom.Point
		var refReads int
		reads := w.accesses(func() { got = idx.KNN(q, k) })
		want := refKNN(idx, cells, q, k, &refReads)
		if len(got) != len(want) || len(got) != min(k, idx.Len()) {
			t.Fatalf("%s: KNN(%v, %d): %d rows, reference %d", stage, q, k, len(got), len(want))
		}
		for j, p := range got {
			if q.Dist2(p) != want[j] {
				t.Fatalf("%s: KNN(%v, %d) rank %d at %v, reference %v", stage, q, k, j, q.Dist2(p), want[j])
			}
			if !w.oracle.PointQuery(p) {
				t.Fatalf("%s: KNN(%v, %d) returned unindexed %v", stage, q, k, p)
			}
		}
		if reads != refReads {
			t.Fatalf("%s: KNN(%v, %d) read %d blocks, reference %d", stage, q, k, reads, refReads)
		}
		checkExactKNN(t, idx, q, k)
		exact, truth := idx.ExactKNN(q, k), w.oracle.KNN(q, k)
		for j := range truth {
			if q.Dist2(exact[j]) != q.Dist2(truth[j]) {
				t.Fatalf("%s: ExactKNN(%v, %d) rank %d differs from the oracle", stage, q, k, j)
			}
		}
	}
}

// checkWindow compares a window's cells in every leaf it meets with the
// brute-force rectangle, and its answer and block reads with the reference
// path and the oracle: a window misses nothing. It returns the answer.
func (w *readPathWorld) checkWindow(stage string, cells map[cellKey][2]int, q geom.Rect) []geom.Point {
	t, idx := w.t, w.idx
	t.Helper()
	var walked []*node
	forLeaves(idx.root, q, func(n *node) { walked = append(walked, n) })
	if want := refLeaves(idx.root, q); !slices.Equal(walked, want) {
		t.Fatalf("%s: window %v walks %d leaves, the reference %d", stage, q, len(walked), len(want))
	}
	for _, leaf := range walked {
		var got []int
		for m := idx.cellMask(leaf, q); m != 0; m &= m - 1 {
			got = append(got, bits.TrailingZeros64(m))
		}
		if want := slices.Compact(refCellRect(idx, leaf, q)); !slices.Equal(got, want) {
			t.Fatalf("%s: window %v reads cells %v of the leaf at block %d, brute force %v",
				stage, q, got, leaf.firstBlock, want)
		}
	}

	var got []geom.Point
	var refReads int
	reads := w.accesses(func() { got = idx.WindowQuery(q) })
	want := refWindow(idx, cells, q, &refReads)
	if len(got) != len(want) {
		t.Fatalf("%s: window %v: %d rows, reference %d", stage, q, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s: window %v row %d = %v, reference %v", stage, q, j, got[j], want[j])
		}
		if !q.Contains(got[j]) || !w.oracle.PointQuery(got[j]) {
			t.Fatalf("%s: window %v false positive %v", stage, q, got[j])
		}
	}
	if reads != refReads {
		t.Fatalf("%s: window %v read %d blocks, reference %d", stage, q, reads, refReads)
	}
	truth := w.oracle.WindowQuery(q)
	if len(got) != len(truth) || index.Recall(got, truth) != 1 {
		t.Fatalf("%s: window %v: %d rows, oracle %d", stage, q, len(got), len(truth))
	}
	if exact := idx.ExactWindow(q); len(exact) != len(truth) || index.Recall(exact, truth) != 1 {
		t.Fatalf("%s: exact window %v: %d rows, oracle %d", stage, q, len(exact), len(truth))
	}
	return got
}

// TestReadPathMatchesReference drives one seeded history — inserts, deletes
// with tombstone-slot reuse, overflow-chain growth, a rebuild, a snapshot
// reload — and checks the read path against the reference at every stage.
func TestReadPathMatchesReference(t *testing.T) {
	for _, curve := range []sfc.Kind{sfc.Hilbert, sfc.Z} {
		t.Run(curve.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260927))
			pts := dataset.Generate(dataset.Skewed, 2500, 41)
			opts := testOptions()
			opts.Curve = curve
			opts.Epochs = 15
			w := &readPathWorld{t: t, rng: rng, idx: New(pts, opts), oracle: index.NewLinear(pts),
				live: append([]geom.Point(nil), pts...)}
			w.held = filed(w.idx)
			w.check("built")

			for i := 0; i < 400; i++ {
				w.insert(geom.Pt(rng.Float64(), rng.Float64()))
			}
			w.check("inserted")

			// Delete, then insert right beside the deleted points: the new
			// points land in the tombstoned slots of the same blocks.
			for i := 0; i < 500; i++ {
				w.deleteAt(rng.Intn(len(w.live)))
			}
			w.check("deleted")
			for _, p := range w.gone[:300] {
				w.insert(geom.Pt(p.X+1e-9*rng.Float64(), p.Y+1e-9*rng.Float64()))
			}
			w.check("slots reused")

			// A burst into one spot grows overflow chains several blocks long.
			hot := w.live[rng.Intn(len(w.live))]
			before := w.idx.store.NumBlocks()
			for i := 0; i < 8*opts.BlockCapacity; i++ {
				w.insert(geom.Pt(hot.X+1e-4*rng.Float64(), hot.Y+1e-4*rng.Float64()))
			}
			if grown := w.idx.store.NumBlocks() - before; grown < 3 {
				t.Fatalf("hot-spot burst grew only %d overflow blocks", grown)
			}
			w.check("chains grown")

			var snap bytes.Buffer
			if _, err := w.idx.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&snap)
			if err != nil {
				t.Fatal(err)
			}
			w.idx = loaded
			w.check("reloaded")

			w.idx.Rebuild()
			w.held = filed(w.idx)
			w.check("rebuilt")
			for i := 0; i < 200; i++ {
				w.insert(geom.Pt(rng.Float64(), rng.Float64()))
				w.deleteAt(rng.Intn(len(w.live)))
			}
			w.check("updated after rebuild")
		})
	}
}

// TestReadPathAllocs pins the allocation-free promises of the read path:
// a point query allocates nothing, and neither does a window query that
// appends into a buffer already large enough.
func TestReadPathAllocs(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 3000)
	for _, p := range pts[:300] {
		idx.Insert(geom.Pt(p.X+1e-6, p.Y))
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		idx.PointQuery(pts[i%len(pts)])
		idx.PointQuery(geom.Pt(pts[i%len(pts)].Y, pts[i%len(pts)].X))
	}); n != 0 {
		t.Errorf("PointQuery allocates %v times per call, want 0", n)
	}
	buf := make([]geom.Point, 0, len(pts)+300)
	if n := testing.AllocsPerRun(200, func() {
		i++
		buf = idx.windowQueryAppend(buf[:0], geom.RectAround(pts[i%len(pts)], 0.1, 0.1))
	}); n != 0 {
		t.Errorf("windowQueryAppend into a warm buffer allocates %v times per call, want 0", n)
	}
	if len(buf) == 0 {
		t.Error("window probe matched nothing; the pin measured an empty path")
	}
}

// TestKNNAllocatesOnlyItsAnswer: candidate lists, block queue and bitmap
// come from the scratch pool, and no round's corner state escapes, so a warm
// kNN query allocates one slice, on an index with inserted points too.
func TestKNNAllocatesOnlyItsAnswer(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	idx, pts := buildTest(t, dataset.Skewed, 3000)
	for _, p := range pts[:300] {
		idx.Insert(geom.Pt(p.X+1e-6, p.Y))
	}
	i := 0
	for _, k := range []int{1, 25, 625} {
		if n := testing.AllocsPerRun(100, func() {
			i++
			if got := idx.KNN(pts[i%len(pts)], k); len(got) != k {
				t.Fatalf("KNN(k=%d) returned %d points", k, len(got))
			}
		}); n != 1 {
			t.Errorf("KNN(k=%d) allocates %v times per call, want 1", k, n)
		}
	}
}

// TestExactKNNAllocatesOnlyItsAnswer: the best-first walk, its queue and its
// candidate set come from pools, so a warm exact kNN query allocates one
// slice, on an index with inserted points too.
func TestExactKNNAllocatesOnlyItsAnswer(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	idx, pts := buildTest(t, dataset.Skewed, 3000)
	for _, p := range pts[:300] {
		idx.Insert(geom.Pt(p.X+1e-6, p.Y))
	}
	i := 0
	for _, k := range []int{1, 25, 625} {
		if n := testing.AllocsPerRun(100, func() {
			i++
			if got := idx.ExactKNN(pts[i%len(pts)], k); len(got) != k {
				t.Fatalf("ExactKNN(k=%d) returned %d points", k, len(got))
			}
		}); n != 1 {
			t.Errorf("ExactKNN(k=%d) allocates %v times per call, want 1", k, n)
		}
	}
}

// TestLoadRejectsShrunkBlockMBR tampers one block MBR inside a written
// snapshot so it no longer covers the block's points. Point queries trust
// that MBR, so the snapshot must not load (or, were it to load, every
// indexed point must still be found).
func TestLoadRejectsShrunkBlockMBR(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 2000)
	var snap, blocks bytes.Buffer
	if _, err := idx.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.store.WriteTo(&blocks); err != nil {
		t.Fatal(err)
	}
	raw := snap.Bytes()
	// The MBR table follows the block store; find it by its contents rather
	// than by trusting a hand-computed header size.
	const victim = 3
	var want bytes.Buffer
	if err := putRect(&want, idx.blockMBR[victim]); err != nil {
		t.Fatal(err)
	}
	tableAt := bytes.Index(raw, blocks.Bytes()) + blocks.Len() + 8
	at := tableAt + victim*32
	if tableAt < blocks.Len() || !bytes.Equal(raw[at:at+32], want.Bytes()) {
		t.Fatalf("block %d's MBR is not at offset %d of the snapshot", victim, at)
	}
	// Collapse the rectangle onto its lower-left corner: MaxX, MaxY := MinX, MinY.
	copy(raw[at+16:at+32], raw[at:at+16])

	loaded, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Logf("load refused: %v", err)
		return
	}
	for _, p := range pts {
		if !loaded.PointQuery(p) {
			t.Fatalf("snapshot with a shrunk MBR loaded and lost %v", p)
		}
	}
}
