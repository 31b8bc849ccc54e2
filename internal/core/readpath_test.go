package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// The read path searches a block only when its cached MBR admits the probe,
// drives block walks through a cursor, and runs kNN rounds best-first. The
// reference below is the path it replaced — closure scans, every block of a
// range searched point by point, kNN in list order behind a visited map —
// kept here, uncounted and ungated, so the property test can demand the same
// answers and the same block-access counts from the new path.

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

func refPoint(t *RSMI, q geom.Point, reads *int) bool {
	lo, hi, ok := t.locate(q)
	if !ok {
		return false
	}
	b, _ := refFind(t, q, lo, hi, reads)
	return b != nil
}

func refWindowBounds(t *RSMI, q geom.Rect, reads *int) (begin, end int, any bool) {
	corners := []geom.Point{{X: q.MinX, Y: q.MinY}, {X: q.MaxX, Y: q.MaxY}}
	if t.opts.Curve != sfc.Z {
		corners = append(corners, geom.Pt(q.MinX, q.MaxY), geom.Pt(q.MaxX, q.MinY))
	}
	begin, end = math.MaxInt, -1
	for _, c := range corners {
		lo, hi, ok := t.locate(c)
		if !ok {
			continue
		}
		any = true
		if b, base := refFind(t, c, lo, hi, reads); b != nil {
			lo, hi = base, base
		}
		begin, end = min(begin, lo), max(end, hi)
	}
	return begin, end, any
}

func refWindow(t *RSMI, q geom.Rect, reads *int) []geom.Point {
	begin, end, ok := refWindowBounds(t, q, reads)
	if !ok || end < begin {
		return nil
	}
	var out []geom.Point
	refScan(t, begin, end, reads, func(b *store.Block, _ int) bool {
		b.Points(func(p geom.Point) {
			if q.Contains(p) {
				out = append(out, p)
			}
		})
		return true
	})
	return out
}

// refKNN is Algorithm 3 as it ran before: blocks in list order, pruned one
// by one against the k-th candidate. It returns the squared distances of its
// answer, which — unlike the order of equidistant points — do not depend on
// the order blocks are searched in.
func refKNN(t *RSMI, q geom.Point, k int, reads *int) []float64 {
	if k <= 0 || t.n == 0 {
		return nil
	}
	k = min(k, t.n)
	frac := math.Sqrt(float64(k) / float64(t.n))
	width := t.pmfX.Alpha(q.X, t.opts.Delta) * frac
	height := t.pmfY.Alpha(q.Y, t.opts.Delta) * frac
	var best []float64 // ascending, at most k
	worst := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[k-1]
	}
	visited := map[int]bool{}
	for round := 0; round < 64; round++ {
		begin, end, ok := refWindowBounds(t, geom.RectAround(q, width, height), reads)
		if ok {
			refScan(t, begin, end, reads, func(b *store.Block, _ int) bool {
				if visited[b.ID] {
					return true
				}
				visited[b.ID] = true
				if len(best) >= k && t.blockMBR[b.ID].MinDist2(q) >= worst() {
					return true
				}
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
				return true
			})
		}
		if len(best) < k {
			width, height = 2*width, 2*height
			continue
		}
		if kth := math.Sqrt(worst()); kth > math.Sqrt(width*width+height*height)/2 {
			width, height = 2*kth, 2*kth
			continue
		}
		break
	}
	return best
}

// readPathWorld is an index under test beside the Linear oracle and the
// list of points both hold.
type readPathWorld struct {
	t      *testing.T
	rng    *rand.Rand
	idx    *RSMI
	oracle *index.Linear
	live   []geom.Point
	gone   []geom.Point
}

func (w *readPathWorld) insert(p geom.Point) {
	w.idx.Insert(p)
	w.oracle.Insert(p)
	w.live = append(w.live, p)
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
	// oracle says, same blocks read as the ungated scan.
	probes := append([]geom.Point(nil), w.live...)
	probes = append(probes, w.gone...)
	for i := 0; i < 200; i++ {
		probes = append(probes, geom.Pt(w.rng.Float64(), w.rng.Float64()))
	}
	for _, p := range probes {
		var got, want bool
		var refReads int
		reads := w.accesses(func() { got = idx.PointQuery(p) })
		want = refPoint(idx, p, &refReads)
		if got != want || got != w.oracle.PointQuery(p) {
			t.Fatalf("%s: PointQuery(%v) = %v, reference %v, oracle %v", stage, p, got, want, w.oracle.PointQuery(p))
		}
		if reads != refReads {
			t.Fatalf("%s: PointQuery(%v) read %d blocks, reference %d", stage, p, reads, refReads)
		}
	}
	for i := 0; i < 60; i++ {
		c := w.live[w.rng.Intn(len(w.live))]
		q := geom.RectAround(c, 0.3*w.rng.Float64(), 0.3*w.rng.Float64())
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
		exact, truth := idx.ExactKNN(q, k), w.oracle.KNN(q, k)
		for j := range truth {
			if q.Dist2(exact[j]) != q.Dist2(truth[j]) {
				t.Fatalf("%s: ExactKNN(%v, %d) rank %d differs from the oracle", stage, q, k, j)
			}
		}
	}
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
