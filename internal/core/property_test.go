package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// Structural invariants of a freshly built RSMI. These are the properties
// the query algorithms rely on; they must hold for any data distribution,
// any seed, and any (sane) option combination.

// chainOf returns base block `base` and the overflow blocks chained after it,
// as the cursor every query walks with yields them.
func chainOf(t *RSMI, base int) []int {
	var ids []int
	c := t.scan(base, base)
	for id := c.next(); id != store.NilBlock; id = c.next() {
		ids = append(ids, id)
	}
	return ids
}

// walkLeaves visits leaves left to right.
func walkLeaves(n *node, fn func(*node)) {
	if n == nil {
		return
	}
	if n.leaf {
		fn(n)
		return
	}
	for _, c := range n.children {
		walkLeaves(c, fn)
	}
}

// TestLeafBlockRangesPartitionStore: leaves own disjoint, consecutive,
// gap-free base block ranges in left-to-right order — the invariant behind
// global window scans.
func TestLeafBlockRangesPartitionStore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kinds := dataset.All()
		pts := dataset.Generate(kinds[rng.Intn(len(kinds))], 500+rng.Intn(3000), seed)
		opts := Options{
			BlockCapacity:      5 + rng.Intn(30),
			PartitionThreshold: 100 + rng.Intn(500),
			LearningRate:       0.1,
			Epochs:             5 + rng.Intn(15),
			Seed:               seed,
		}
		idx := New(pts, opts)
		next := 0
		ok := true
		walkLeaves(idx.root, func(l *node) {
			if l.firstBlock != next || l.numBlocks < 1 {
				ok = false
			}
			next = l.firstBlock + l.numBlocks
		})
		return ok && next == idx.baseBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestBlockListOrderMatchesIDs: at build time, walking the block linked
// list from block 0 visits exactly the base blocks in id order.
func TestBlockListOrderMatchesIDs(t *testing.T) {
	pts := dataset.Generate(dataset.OSMLike, 4000, 3)
	idx := New(pts, testOptions())
	want := 0
	for cur := 0; cur != store.NilBlock; {
		b := idx.store.Peek(cur)
		if b.ID != want {
			t.Fatalf("list order broken: got block %d, want %d", b.ID, want)
		}
		want++
		cur = b.Next
	}
	if want != idx.baseBlocks {
		t.Fatalf("list covers %d of %d blocks", want, idx.baseBlocks)
	}
}

// TestNodeMBRsContainSubtrees: every node's MBR contains its children's
// MBRs and, at leaves, every live point — the invariant behind RSMIa.
func TestNodeMBRsContainSubtrees(t *testing.T) {
	pts := dataset.Generate(dataset.TigerLike, 5000, 4)
	idx := New(pts, testOptions())
	// Stress with updates too: MBRs must stay supersets.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		idx.Insert(geom.Pt(rng.Float64(), rng.Float64()))
	}
	var walk func(n *node) geom.Rect
	walk = func(n *node) geom.Rect {
		if n.leaf {
			covered := geom.EmptyRect()
			for id := n.firstBlock; id < n.firstBlock+n.numBlocks; id++ {
				for _, cid := range chainOf(idx, id) {
					b := idx.store.Peek(cid)
					b.Points(func(p geom.Point) {
						covered = covered.ExtendPoint(p)
						if !n.mbr.Contains(p) {
							t.Errorf("leaf MBR %v misses %v", n.mbr, p)
						}
					})
				}
			}
			return covered
		}
		covered := geom.EmptyRect()
		for _, c := range n.children {
			if c == nil {
				continue
			}
			sub := walk(c)
			covered = covered.Union(sub)
			if !sub.IsEmpty() && !n.mbr.ContainsRect(sub) {
				t.Errorf("node MBR %v misses child content %v", n.mbr, sub)
			}
		}
		return covered
	}
	walk(idx.root)
}

// TestDescentMatchesBuildGrouping: for every indexed point, query-time
// descent reaches a leaf whose block range contains the point — the §3.2
// property that grouping by predictions makes routing exact.
func TestDescentMatchesBuildGrouping(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 6000, 6)
	idx := New(pts, testOptions())
	for _, p := range pts {
		leaf, path := idx.descendPath(p, nil)
		if leaf == nil {
			t.Fatalf("descent dead-ended for %v", p)
		}
		found := false
		for id := leaf.firstBlock; id < leaf.firstBlock+leaf.numBlocks && !found; id++ {
			for _, cid := range chainOf(idx, id) {
				if idx.store.Peek(cid).Find(p) >= 0 {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("point %v not stored under its descent leaf [%d,%d)",
				p, leaf.firstBlock, leaf.firstBlock+leaf.numBlocks)
		}
		if len(path) > maxDepth {
			t.Fatalf("descent depth %d exceeds maxDepth", len(path))
		}
	}
}

// TestModelCountMatchesStats: the walk-based stats agree with the build
// counters.
func TestModelCountMatchesStats(t *testing.T) {
	pts := dataset.Generate(dataset.Normal, 4000, 7)
	idx := New(pts, testOptions())
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		count++
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(idx.root)
	if count != idx.models {
		t.Errorf("walked %d models, counter says %d", count, idx.models)
	}
	leafPoints := 0
	walkLeaves(idx.root, func(l *node) { leafPoints += l.points })
	if leafPoints != idx.n {
		t.Errorf("leaf point counters sum to %d, n = %d", leafPoints, idx.n)
	}
}

// TestWindowSubsetOfExact: the approximate window answer is always a subset
// of the exact answer (no false positives relative to RSMIa).
func TestWindowSubsetOfExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := dataset.Generate(dataset.Skewed, 1500, seed)
		idx := New(pts, Options{
			BlockCapacity:      20,
			PartitionThreshold: 400,
			LearningRate:       0.1,
			Epochs:             10,
			Seed:               seed,
		})
		for i := 0; i < 10; i++ {
			q := geom.RectAround(
				geom.Pt(rng.Float64(), rng.Float64()),
				0.2*rng.Float64(), 0.2*rng.Float64())
			exact := make(map[geom.Point]bool)
			for _, p := range idx.ExactWindow(q) {
				exact[p] = true
			}
			for _, p := range idx.WindowQuery(q) {
				if !exact[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestOversizedLeafFallback: a partition threshold below the block capacity
// still builds a correct index (forced-leaf path).
func TestOversizedLeafFallback(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 1000, 8)
	idx := New(pts, Options{
		BlockCapacity:      100,
		PartitionThreshold: 50, // below B: grid order clamps to 1
		LearningRate:       0.1,
		Epochs:             10,
		Seed:               1,
	})
	for _, p := range pts {
		if !idx.PointQuery(p) {
			t.Fatalf("point %v lost under tiny threshold", p)
		}
	}
}

// TestKNNBestMatchesFullSort: after every merged group of points the
// candidate list holds exactly the first k of a stable sort by distance of
// everything offered so far — the same distances in the same order and,
// among equidistant points, the ones seen first. Group sizes run from empty
// to several blocks' worth and coordinates come from a coarse grid, so ties
// are everywhere, at the k-th place too.
func TestKNNBestMatchesFullSort(t *testing.T) {
	for _, k := range []int{1, 25, 625} {
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 12; trial++ {
			q := geom.Pt(float64(rng.Intn(12)), float64(rng.Intn(12)))
			if trial == 0 {
				q.X = 1e300 // every distance overflows to +Inf: the first k seen are the answer
			}
			best := knnBest{q: q, k: k}
			var all []geom.Point
			for len(all) < 3*k+200 {
				group := make([]geom.Point, rng.Intn(250))
				for i := range group {
					group[i] = geom.Pt(float64(rng.Intn(12)), float64(rng.Intn(12)))
					if rng.Intn(4) == 0 { // a quarter off the grid: distinct distances too
						group[i].X += rng.Float64()
					}
				}
				best.merge(group)
				all = append(all, group...)

				want := append([]geom.Point(nil), all...)
				sort.SliceStable(want, func(i, j int) bool { return q.Dist2(want[i]) < q.Dist2(want[j]) })
				want = want[:min(k, len(want))]
				got := best.points()
				if len(got) != len(want) || best.full() != (len(all) >= k) {
					t.Fatalf("k=%d after %d points: %d candidates (full=%v), want %d", k, len(all), len(got), best.full(), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("k=%d after %d points: rank %d is %v (d²=%v), full sort has %v (d²=%v)",
							k, len(all), i, got[i], q.Dist2(got[i]), want[i], q.Dist2(want[i]))
					}
				}
				if best.full() && best.worst() != q.Dist2(want[k-1]) {
					t.Fatalf("k=%d: worst() = %v, k-th distance is %v", k, best.worst(), q.Dist2(want[k-1]))
				}
			}
		}
	}
}

// TestCursorMatchesListWalk: over random base-block ranges — empty, reversed
// and out-of-range ones included — the index cursor yields the blocks, names
// the chain bases and counts the reads that following Next from block to
// block (refScan, the walk it replaced) does; through overflow-chain growth,
// a snapshot reload and a rebuild, on both curves.
func TestCursorMatchesListWalk(t *testing.T) {
	for _, curve := range []sfc.Kind{sfc.Hilbert, sfc.Z} {
		rng := rand.New(rand.NewSource(7))
		opts := testOptions()
		opts.Curve = curve
		opts.Epochs = 10
		idx := New(dataset.Generate(dataset.Skewed, 2000, 43), opts)
		check := func(stage string) {
			t.Helper()
			for i := 0; i < 300; i++ {
				begin, end := rng.Intn(idx.baseBlocks+4)-2, rng.Intn(idx.baseBlocks+4)-2
				if i%3 == 0 {
					end = begin + rng.Intn(4)
				}
				type step struct{ id, base int }
				var want, got []step
				wantReads := 0
				if begin < idx.baseBlocks { // scan's contract; refScan has no such guard
					refScan(idx, begin, end, &wantReads, func(b *store.Block, base int) bool {
						want = append(want, step{b.ID, base})
						return true
					})
				}
				c := idx.scan(begin, end)
				for id := c.next(); id != store.NilBlock; id = c.next() {
					got = append(got, step{id, c.base})
				}
				if !slices.Equal(got, want) || c.reads != wantReads {
					t.Fatalf("%v, %s: scan(%d, %d) yielded %v in %d reads, the list walk %v in %d",
						curve, stage, begin, end, got, c.reads, want, wantReads)
				}
			}
		}
		check("built")
		// Bursts into a few spots grow chains of several blocks, some of them
		// hung off the last base block of a leaf and of the index.
		for _, hot := range []geom.Point{idx.store.Peek(0).Slots()[0], idx.store.Peek(idx.baseBlocks - 1).Slots()[0],
			idx.store.Peek(idx.baseBlocks / 2).Slots()[0], {X: rng.Float64(), Y: rng.Float64()}} {
			for i := 0; i < 5*opts.BlockCapacity; i++ {
				idx.Insert(geom.Pt(hot.X+1e-6*rng.Float64(), hot.Y+1e-6*rng.Float64()))
			}
		}
		if idx.store.NumBlocks() < idx.baseBlocks+8 {
			t.Fatalf("bursts grew only %d overflow blocks", idx.store.NumBlocks()-idx.baseBlocks)
		}
		check("chains grown")
		idx = roundTrip(t, idx)
		check("reloaded")
		for i := 0; i < 200; i++ { // chains whose heads Insert links on a loaded index
			idx.Insert(geom.Pt(rng.Float64(), rng.Float64()))
		}
		check("updated after reload")
		idx.Rebuild()
		check("rebuilt")
	}
}

// TestKNNAllocatesOnlyItsAnswer: candidate lists, block queue and bitmap
// come from the scratch pool, so a warm kNN query allocates one slice.
func TestKNNAllocatesOnlyItsAnswer(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	idx, pts := buildTest(t, dataset.Skewed, 3000)
	for _, k := range []int{1, 25, 625} {
		i := 0
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

// TestCurveOptionsProduceDifferentOrders: Hilbert and Z orderings must not
// silently collapse into the same structure.
func TestCurveOptionsProduceDifferentOrders(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 2000, 9)
	h := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 500, Epochs: 5, LearningRate: 0.1, Seed: 1, Curve: sfc.Hilbert})
	z := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 500, Epochs: 5, LearningRate: 0.1, Seed: 1, Curve: sfc.Z})
	// Different groupings may yield different block counts; when they
	// coincide, the contents of the first block must still differ because
	// the orderings differ.
	if h.store.NumBlocks() != z.store.NumBlocks() {
		return
	}
	var hp, zp []geom.Point
	h.store.Peek(0).Points(func(p geom.Point) { hp = append(hp, p) })
	z.store.Peek(0).Points(func(p geom.Point) { zp = append(zp, p) })
	same := len(hp) == len(zp)
	if same {
		for i := range hp {
			if hp[i] != zp[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("Hilbert and Z orderings produced identical block 0")
	}
}
