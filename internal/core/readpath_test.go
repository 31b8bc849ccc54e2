package core

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// The read path searches a block only when its cached MBR admits the probe,
// drives block walks through a cursor, and reads the blocks of a point's
// leaf cell. The reference below is the plain path — closure scans, every
// block of a range searched point by point, a window's leaves and blocks
// tested one by one — kept here, uncounted and ungated, so the property
// test can demand the same answers and the same block-access counts from
// the read path; kNN's reference is refExactKNN. The cells' blocks are
// derived here by brute force: a cell's from the base blocks its packed
// points were packed in, an empty cell's from how many packed points
// precede it. The reference walks a leaf's base blocks through its list and
// each chain through the blocks' Next links, not the chain heads the cursor
// reads.

// refScan walks the base blocks at positions [begin, end] of leaf's list,
// each followed by its overflow chain, counting every block it hands to fn
// in *reads.
func refScan(t *RSMI, leaf *node, begin, end int, reads *int, fn func(b *store.Block, pos int) bool) {
	if begin < 0 {
		return
	}
	for pos := begin; pos <= end && pos < len(leaf.blocks); pos++ {
		for id := int(leaf.blocks[pos]); id != store.NilBlock; id = t.store.Peek(id).Next {
			*reads++
			if !fn(t.store.Peek(id), pos) {
				return
			}
		}
	}
}

// refFind searches every block of positions [lo, hi] of leaf for q, MBR or
// no MBR.
func refFind(t *RSMI, leaf *node, q geom.Point, lo, hi int, reads *int) (found *store.Block, pos int) {
	refScan(t, leaf, lo, hi, reads, func(b *store.Block, at int) bool {
		if b.Find(q) >= 0 {
			found, pos = b, at
			return false
		}
		return true
	})
	return found, pos
}

// heldPoint is a point an index has held, the base block it was filed
// under, and whether a build or a repack packed it there.
type heldPoint struct {
	p     geom.Point
	base  int
	built bool
}

// filed returns every point under leaf n, or under every leaf when n is
// nil, with the base block of the block holding it; right after a build or
// a repack of its leaf, the points of base blocks are the ones it packed.
func filed(t *RSMI, n *node) []heldPoint {
	var out []heldPoint
	walkLeaves(t.root, func(leaf *node) {
		if n != nil && leaf != n {
			return
		}
		refScan(t, leaf, 0, len(leaf.blocks)-1, new(int), func(b *store.Block, pos int) bool {
			b.Points(func(p geom.Point) { out = append(out, heldPoint{p, int(leaf.blocks[pos]), !b.Inserted}) })
			return true
		})
	})
	return out
}

// cellKey names one cell of one leaf.
type cellKey struct {
	leaf *node
	cell int
}

// deriveCells measures, for every cell of every leaf, the positions
// [lo, hi] in the leaf's list of the base blocks its held packed points were
// packed in; and for a cell that took no packed point, the one block its
// position falls in: after every packed point of its leaf in the cells
// before it in curve order, within the leaf's run of blocks of its fill.
func deriveCells(t *RSMI, held []heldPoint) map[cellKey][2]int {
	cells := map[cellKey][2]int{}
	counts := map[cellKey]int{}
	for _, h := range held {
		if !h.built {
			continue
		}
		leaf := t.descend(h.p)
		k := cellKey{leaf, t.cell(leaf, h.p)}
		counts[k]++
		pos := slices.Index(leaf.blocks, int32(h.base))
		r, ok := cells[k]
		if !ok {
			r = [2]int{pos, pos}
		}
		cells[k] = [2]int{min(r[0], pos), max(r[1], pos)}
	}
	walkLeaves(t.root, func(leaf *node) {
		before := 0
		for c := range 1 << (2 * leaf.order) {
			k := cellKey{leaf, c}
			if _, ok := cells[k]; !ok {
				pos := min(before/leaf.fill, len(leaf.blocks)-1)
				cells[k] = [2]int{pos, pos}
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
	r := cells[cellKey{leaf, t.cell(leaf, q)}]
	b, _ := refFind(t, leaf, q, r[0], r[1], reads)
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

// refWindow is the MBR walk done plainly: in every leaf whose MBR meets q,
// every block of the leaf's list and chains, in list order, read (counted)
// and scanned when its cached MBR meets q.
func refWindow(t *RSMI, q geom.Rect, reads *int) []geom.Point {
	var out []geom.Point
	for _, leaf := range refLeaves(t.root, q) {
		refScan(t, leaf, 0, len(leaf.blocks)-1, new(int), func(b *store.Block, _ int) bool {
			if t.blockMBR[b.ID].Intersects(q) {
				*reads++
				b.Points(func(p geom.Point) {
					if q.Contains(p) {
						out = append(out, p)
					}
				})
			}
			return true
		})
	}
	return out
}

// readPathWorld is an index under test beside the Linear oracle and the
// list of points both hold, and every point the index has held since its
// last build, or since the last repack of its leaf, with the base block it
// was filed under.
type readPathWorld struct {
	t      *testing.T
	rng    *rand.Rand
	idx    *RSMI
	oracle *index.Linear
	live   []geom.Point
	gone   []geom.Point
	held   []heldPoint
	// repacked counts the leaf repacks the world's inserts set off.
	repacked int
}

func (w *readPathWorld) insert(p geom.Point) {
	repacks := w.idx.repacks
	w.idx.Insert(p)
	w.oracle.Insert(p)
	w.live = append(w.live, p)
	leaf := w.idx.descend(p)
	if w.idx.repacks != repacks {
		// The leaf was repacked: its live points are its packed points now.
		w.held = slices.DeleteFunc(w.held, func(h heldPoint) bool { return w.idx.descend(h.p) == leaf })
		w.held = append(w.held, filed(w.idx, leaf)...)
		w.repacked++
		return
	}
	for _, h := range filed(w.idx, leaf) {
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
// counts, with the reference paths and the oracle.
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
		pos := slices.Index(leaf.blocks, int32(h.base))
		if r := cells[cellKey{leaf, idx.cell(leaf, h.p)}]; pos < r[0] || pos > r[1] {
			t.Fatalf("%s: %v was filed under block %d at position %d, outside its cell's positions %v", stage, h.p, h.base, pos, r)
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
		w.checkWindow(stage, geom.RectAround(c, 0.3*w.rng.Float64(), 0.3*w.rng.Float64()))
	}
	// Windows spanned by two live points, one below and left of the other:
	// their corners and sides pass through indexed points, so both points
	// are in the answer.
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
			got := w.checkWindow(stage, q)
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
		checkExactKNN(t, idx, q, k)
		if got, truth := idx.KNN(q, k), w.oracle.KNN(q, k); !slices.Equal(got, truth) {
			t.Fatalf("%s: KNN(%v, %d) = %v, oracle %v", stage, q, k, got, truth)
		}
	}
}

// checkWindow compares a window's leaves with the brute-force walk, and its
// answer and block reads with the reference path and the oracle: a window
// misses nothing. It returns the answer.
func (w *readPathWorld) checkWindow(stage string, q geom.Rect) []geom.Point {
	t, idx := w.t, w.idx
	t.Helper()
	var walked []*node
	forLeaves(idx.root, q, func(n *node) { walked = append(walked, n) })
	if want := refLeaves(idx.root, q); !slices.Equal(walked, want) {
		t.Fatalf("%s: window %v walks %d leaves, the reference %d", stage, q, len(walked), len(want))
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
	truth := w.oracle.WindowQuery(q)
	if len(got) != len(truth) || index.Recall(got, truth) != 1 {
		t.Fatalf("%s: window %v: %d rows, oracle %d", stage, q, len(got), len(truth))
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
			w.held = filed(w.idx, nil)
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

			// A burst into one spot grows overflow chains and repacks the
			// leaf it lands in, more than once; the checks run between
			// repacks too, on chains grown over repacked blocks.
			hot := w.live[rng.Intn(len(w.live))]
			repacked, longest := w.repacked, 0
			for i := 0; i < 8*opts.BlockCapacity; i++ {
				p := geom.Pt(hot.X+1e-6*rng.Float64(), hot.Y+1e-6*rng.Float64())
				w.insert(p)
				grown := longest
				for _, id := range w.idx.descend(p).blocks {
					longest = max(longest, len(chainOf(w.idx, int(id))))
				}
				if longest > grown && longest >= 2 {
					w.check("chains grown")
				}
			}
			w.check("burst")
			if longest < 2 || w.repacked < repacked+2 {
				t.Fatalf("hot-spot burst grew chains of %d blocks at most, in %d repacks", longest, w.repacked-repacked)
			}

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
			w.held = filed(w.idx, nil)
			w.check("rebuilt")
			for i := 0; i < 200; i++ {
				w.insert(geom.Pt(rng.Float64(), rng.Float64()))
				w.deleteAt(rng.Intn(len(w.live)))
			}
			w.check("updated after rebuild")
		})
	}
}

// TestReadPathAllocs pins the allocation-free promises of the read path,
// on an index with inserted points: a point query allocates nothing, a
// window appending into a buffer already large enough allocates nothing,
// and a kNN walk offering into a caller's set allocates nothing of its own
// (not checked under the race detector, where sync.Pool sheds items).
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
	ctx := context.Background()
	buf := make([]geom.Point, 0, len(pts)+300)
	rows := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		w := geom.RectAround(pts[i%len(pts)], 0.1, 0.1)
		buf = idx.windowQueryAppend(buf[:0], w)
		rows += len(buf)
		buf, _ = idx.WindowQueryAppend(ctx, buf[:0], w)
	}); n != 0 {
		t.Errorf("windowQueryAppend and WindowQueryAppend into a warm buffer allocate %v times per call, want 0", n)
	}
	if rows == 0 {
		t.Error("window probes matched nothing; the pin measured an empty path")
	}
	if raceDetector {
		return
	}
	for _, k := range []int{1, 25, 625} {
		if n := testing.AllocsPerRun(100, func() {
			i++
			best := index.NewNearest(pts[i%len(pts)], k)
			idx.KNNInto(&best)
			if got := best.Points(); len(got) != k {
				t.Fatalf("KNNInto(k=%d) offered %d points", k, len(got))
			}
		}); n != 1 {
			t.Errorf("KNNInto(k=%d) and its answer allocate %v times per call, want 1", k, n)
		}
	}
}

// TestKNNAllocatesOnlyItsAnswer: the best-first walk, its queue and its
// candidate set come from pools, so a warm kNN query allocates one slice,
// on an index with inserted points too.
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
