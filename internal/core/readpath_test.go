package core

import (
	"bytes"
	"math"
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
// drives block walks through a cursor, runs kNN rounds best-first, and scans
// a point query's span rather than its leaf's error range. The reference
// below is the path it replaced — closure scans, every block of a range
// searched point by point, kNN in list order behind a visited map — kept
// here, uncounted and ungated, so the property test can demand the same
// answers and the same block-access counts from the new path. Windows and
// kNN rounds are written out as plain code for the per-leaf walk: every
// leaf whose MBR meets the region, the four corners of the region clipped
// to that leaf, then kNN's top-up pass. A point query's span is derived
// here by brute force, from every point the index has held.

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

// heldPoint is a point an index has held and the base block it was filed
// under.
type heldPoint struct {
	p    geom.Point
	base int
}

// filed returns every point of t with the base block of the block holding
// it, walking the whole block list.
func filed(t *RSMI) []heldPoint {
	var out []heldPoint
	refScan(t, 0, t.baseBlocks-1, new(int), func(b *store.Block, base int) bool {
		b.Points(func(p geom.Point) { out = append(out, heldPoint{p, base}) })
		return true
	})
	return out
}

// spanKey names one prediction of one leaf.
type spanKey struct {
	leaf *node
	pred int
}

// deriveSpans measures, for every prediction of every leaf, the base blocks
// [lo, hi] the held points predicted there were filed under. A prediction no
// held point reaches has no entry.
func deriveSpans(t *RSMI, held []heldPoint) map[spanKey][2]int {
	spans := map[spanKey][2]int{}
	for _, h := range held {
		leaf := t.descend(h.p)
		k := spanKey{leaf, leaf.predictClamped(h.p)}
		s, ok := spans[k]
		if !ok {
			s = [2]int{h.base, h.base}
		}
		spans[k] = [2]int{min(s[0], h.base), max(s[1], h.base)}
	}
	return spans
}

// refPoint scans the derived span of q's prediction for q.
func refPoint(t *RSMI, spans map[spanKey][2]int, q geom.Point, reads *int) bool {
	leaf := t.descend(q)
	if leaf == nil {
		return false
	}
	s, ok := spans[spanKey{leaf, leaf.predictClamped(q)}]
	if !ok {
		return false
	}
	b, _ := refFind(t, q, s[0], s[1], reads)
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

// refErrorRange is leaf's error-bounded range of global base blocks for q:
// its prediction widened by errDown below and errUp above, clamped to the
// leaf's run.
func refErrorRange(leaf *node, q geom.Point) (lo, hi int) {
	pred := leaf.firstBlock + leaf.predictClamped(q)
	return max(leaf.firstBlock, pred-leaf.errDown), min(leaf.firstBlock+leaf.numBlocks-1, pred+leaf.errUp)
}

// refCorner is one window corner as the four-probe reference sees it: its
// error-bounded range, whether its probe found it and in which base block,
// and the blocks that probe read.
type refCorner struct {
	lo, hi, base, reads int
	found               bool
}

// refClipCorners returns the corners Algorithm 2 uses for q clipped to
// leaf's MBR, in the order the read path lists them.
func refClipCorners(t *RSMI, leaf *node, q geom.Rect) []geom.Point {
	minX, minY := math.Max(q.MinX, leaf.mbr.MinX), math.Max(q.MinY, leaf.mbr.MinY)
	maxX, maxY := math.Min(q.MaxX, leaf.mbr.MaxX), math.Min(q.MaxY, leaf.mbr.MaxY)
	corners := []geom.Point{geom.Pt(minX, minY), geom.Pt(maxX, maxY)}
	if t.opts.Curve != sfc.Z {
		corners = append(corners, geom.Pt(minX, maxY), geom.Pt(maxX, minY))
	}
	return corners
}

// refCorners locates and probes every corner of q clipped to leaf's MBR.
func refCorners(t *RSMI, leaf *node, q geom.Rect) []refCorner {
	var out []refCorner
	for _, c := range refClipCorners(t, leaf, q) {
		lo, hi := refErrorRange(leaf, c)
		rc := refCorner{lo: lo, hi: hi}
		b, base := refFind(t, c, lo, hi, &rc.reads)
		rc.found, rc.base = b != nil, base
		out = append(out, rc)
	}
	return out
}

// refLeafRange is Algorithm 2's range in leaf with every corner probed,
// counting every probe's reads.
func refLeafRange(t *RSMI, leaf *node, q geom.Rect, reads *int) (begin, end int) {
	begin, end = math.MaxInt, -1
	for _, c := range refCorners(t, leaf, q) {
		*reads += c.reads
		lo, hi := c.lo, c.hi
		if c.found {
			lo, hi = c.base, c.base
		}
		begin, end = min(begin, lo), max(end, hi)
	}
	return begin, end
}

// refUnprobedRange is the union of the error-bounded ranges of q's corners
// clipped to leaf's MBR; it reads nothing.
func refUnprobedRange(t *RSMI, leaf *node, q geom.Rect) (begin, end int) {
	begin, end = math.MaxInt, -1
	for _, c := range refClipCorners(t, leaf, q) {
		lo, hi := refErrorRange(leaf, c)
		begin, end = min(begin, lo), max(end, hi)
	}
	return begin, end
}

// lazyReads returns the blocks the lazy corner rule reads over corners cs:
// while no probed corner holds the least lo, the first corner holding it is
// probed, a hit narrowing its range to its base block; then the same for the
// greatest hi. A corner is probed at most once.
func lazyReads(cs []refCorner) int {
	lo, hi := make([]int, len(cs)), make([]int, len(cs))
	probed := make([]bool, len(cs))
	for i, c := range cs {
		lo[i], hi[i] = c.lo, c.hi
	}
	reads := 0
	for _, bound := range []func(i int) int{
		func(i int) int { return lo[i] },
		func(i int) int { return -hi[i] },
	} {
		for {
			least, settled, first := math.MaxInt, false, -1
			for i := range cs {
				least = min(least, bound(i))
			}
			for i := range cs {
				if bound(i) == least {
					settled = settled || probed[i]
					if first < 0 {
						first = i
					}
				}
			}
			if settled || first < 0 {
				break
			}
			probed[first] = true
			reads += cs[first].reads
			if cs[first].found {
				lo[first], hi[first] = cs[first].base, cs[first].base
			}
		}
	}
	return reads
}

// refLazyRange is refLeafRange's range with the reads the lazy corner rule
// makes for it.
func refLazyRange(t *RSMI, leaf *node, q geom.Rect, reads *int) (begin, end int) {
	begin, end = refLeafRange(t, leaf, q, new(int))
	*reads += lazyReads(refCorners(t, leaf, q))
	return begin, end
}

// refWindow is Algorithm 2 leaf by leaf: in every leaf whose MBR meets q,
// the lazy four-probe range of q clipped to the leaf, scanned in list order.
func refWindow(t *RSMI, q geom.Rect, reads *int) []geom.Point {
	var out []geom.Point
	for _, leaf := range refLeaves(t.root, q) {
		begin, end := refLazyRange(t, leaf, q, reads)
		refScan(t, begin, end, reads, func(b *store.Block, _ int) bool {
			b.Points(func(p geom.Point) {
				if q.Contains(p) {
					out = append(out, p)
				}
			})
			return true
		})
	}
	return out
}

// refKNN is Algorithm 3 over refWindow's ranges, its blocks in list order,
// pruned one by one against the k-th candidate, then the top-up pass when
// the k-th circle leaves the region: the blocks of every leaf meeting the
// circle's bounding square, in the union of its corners' unprobed ranges,
// that lie nearer than the k-th candidate, each counted as read. It returns
// the squared distances of its answer, which — unlike the order of
// equidistant points — do not depend on the order blocks are searched in.
func refKNN(t *RSMI, q geom.Point, k int, reads *int) []float64 {
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
			begin, end := refLazyRange(t, leaf, region, reads)
			refScan(t, begin, end, reads, func(b *store.Block, _ int) bool {
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
				begin, end := refUnprobedRange(t, leaf, square)
				refScan(t, begin, end, new(int), func(b *store.Block, _ int) bool {
					if !visited[b.ID] && t.blockMBR[b.ID].MinDist2(q) < bound {
						visited[b.ID] = true
						near = append(near, b)
					}
					return true
				})
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
	// oracle says, same blocks read as the ungated scan of the derived span,
	// and no more than the ungated scan of the leaf's error range.
	probes := append([]geom.Point(nil), w.live...)
	probes = append(probes, w.gone...)
	for i := 0; i < 200; i++ {
		probes = append(probes, geom.Pt(w.rng.Float64(), w.rng.Float64()))
	}
	spans := deriveSpans(idx, w.held)
	for _, p := range probes {
		var got, want bool
		var refReads, leafReads int
		reads := w.accesses(func() { got = idx.PointQuery(p) })
		want = refPoint(idx, spans, p, &refReads)
		if got != want || got != w.oracle.PointQuery(p) {
			t.Fatalf("%s: PointQuery(%v) = %v, reference %v, oracle %v", stage, p, got, want, w.oracle.PointQuery(p))
		}
		if reads != refReads {
			t.Fatalf("%s: PointQuery(%v) read %d blocks, reference %d", stage, p, reads, refReads)
		}
		if leaf := idx.descend(p); leaf != nil {
			lo, hi := refErrorRange(leaf, p)
			refFind(idx, p, lo, hi, &leafReads)
		}
		if reads > leafReads {
			t.Fatalf("%s: PointQuery(%v) read %d blocks, the leaf's error range %d", stage, p, reads, leafReads)
		}
	}
	for i := 0; i < 60; i++ {
		c := w.live[w.rng.Intn(len(w.live))]
		w.checkWindow(stage, geom.RectAround(c, 0.3*w.rng.Float64(), 0.3*w.rng.Float64()))
	}
	// Windows spanned by two live points, one below and left of the other:
	// their bottom-left and top-right corners are indexed, so those probes
	// hit (on both curves). A hit on the corner holding the least lo (or the
	// greatest hi) may leave it the extreme, or move the extreme to another
	// corner's range, which the lazy rule must then probe; both must occur.
	var moved, stayed int
	for tries := 0; tries < 2000 && (moved < 10 || stayed < 10); tries++ {
		a := w.live[w.rng.Intn(len(w.live))]
		if tries%2 == 1 { // the newest points, a hot spot's among them
			a = w.live[len(w.live)-1-w.rng.Intn(min(len(w.live), 200))]
		}
		for _, b := range w.oracle.KNN(a, 8) {
			if b.X <= a.X || b.Y <= a.Y {
				continue
			}
			q := geom.NewRect(a, b)
			for _, leaf := range refLeaves(idx.root, q) {
				m, st := hitMoves(refCorners(idx, leaf, q))
				if m {
					moved++
				}
				if st {
					stayed++
				}
			}
			w.checkWindow(stage, q)
		}
	}
	if moved == 0 || stayed == 0 {
		t.Fatalf("%s: of the windows spanned by two points, %d had a hit move an extreme and %d a hit leave it; want both", stage, moved, stayed)
	}
	for i := 0; i < 40; i++ {
		q := geom.Pt(w.rng.Float64(), w.rng.Float64())
		k := 1 + w.rng.Intn(40)
		var got []geom.Point
		var refReads int
		reads := w.accesses(func() { got = idx.KNN(q, k) })
		want := refKNN(idx, q, k, &refReads)
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

// checkWindow compares a window's scan range in every leaf it meets with the
// four-probe reference, and its answer and block reads, probes and scans,
// with the reference path under the lazy corner rule.
func (w *readPathWorld) checkWindow(stage string, q geom.Rect) {
	t, idx := w.t, w.idx
	t.Helper()
	var walked []*node
	forLeaves(idx.root, q, func(n *node) { walked = append(walked, n) })
	if want := refLeaves(idx.root, q); !slices.Equal(walked, want) {
		t.Fatalf("%s: window %v walks %d leaves, the reference %d", stage, q, len(walked), len(want))
	}
	for _, leaf := range walked {
		var refAll int
		wantBegin, wantEnd := refLeafRange(idx, leaf, q, &refAll)
		var begin, end int
		reads := w.accesses(func() { begin, end = idx.leafBounds(leaf, q, true) })
		if begin != wantBegin || end != wantEnd {
			t.Fatalf("%s: window %v bounds [%d, %d] in the leaf at block %d, four-probe reference [%d, %d]",
				stage, q, begin, end, leaf.firstBlock, wantBegin, wantEnd)
		}
		if refLazy := lazyReads(refCorners(idx, leaf, q)); reads != refLazy {
			t.Fatalf("%s: window %v bounds read %d blocks in the leaf at block %d, the lazy rule %d (four probes %d)",
				stage, q, reads, leaf.firstBlock, refLazy, refAll)
		}
	}

	var got []geom.Point
	var refReads int
	reads := w.accesses(func() { got = idx.WindowQuery(q) })
	want := refWindow(idx, q, &refReads)
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
	exact, truth := idx.ExactWindow(q), w.oracle.WindowQuery(q)
	if len(exact) != len(truth) || index.Recall(exact, truth) != 1 {
		t.Fatalf("%s: exact window %v: %d rows, oracle %d", stage, q, len(exact), len(truth))
	}
}

// hitMoves reports, for corners cs, whether a hit on a corner holding the
// least lo or the greatest hi moves that extreme to another corner's
// range, and whether such a hit leaves it where it was.
func hitMoves(cs []refCorner) (moved, stayed bool) {
	for _, bound := range []func(lo, hi int) int{
		func(lo, _ int) int { return lo },
		func(_, hi int) int { return -hi },
	} {
		x := -1
		for i, c := range cs {
			if x < 0 || bound(c.lo, c.hi) < bound(cs[x].lo, cs[x].hi) {
				x = i
			}
		}
		if x < 0 || !cs[x].found {
			continue
		}
		past := false
		for i, c := range cs {
			past = past || i != x && bound(c.lo, c.hi) < bound(cs[x].base, cs[x].base)
		}
		moved, stayed = moved || past, stayed || !past
	}
	return moved, stayed
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
