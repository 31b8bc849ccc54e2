package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// Structural invariants of a freshly built RSMI. These are the properties
// the query algorithms rely on; they must hold for any data distribution,
// any seed, and any (sane) option combination.

// chainOf returns base block `base` and the overflow blocks chained after
// it, following Next from the base block to the chain's end.
func chainOf(t *RSMI, base int) []int {
	var ids []int
	for id := base; id != store.NilBlock; id = t.store.Peek(id).Next {
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

// TestLeafBlockRangesPartitionStore: the leaves' block lists name every base
// block once and no overflow block. A build packs each leaf's blocks as one
// run of ids, left to right, gap-free; inserts that repack leaves keep the
// lists a partition of the blocks not marked Inserted.
func TestLeafBlockRangesPartitionStore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kinds := dataset.All()
		pts := dataset.Generate(kinds[rng.Intn(len(kinds))], 500+rng.Intn(3000), seed)
		opts := Options{
			BlockCapacity:      5 + rng.Intn(30),
			PartitionThreshold: 100 + rng.Intn(500),
			Epochs:             5 + rng.Intn(15),
			Seed:               seed,
		}
		idx := New(pts, opts)
		var named []int32
		walkLeaves(idx.root, func(l *node) { named = append(named, l.blocks...) })
		for i, id := range named {
			if int(id) != i {
				return false
			}
		}
		if len(named) != idx.store.NumBlocks() {
			return false
		}
		for _, p := range jittered(pts, len(pts)/2, seed) {
			idx.Insert(p)
		}
		count := make([]int, idx.store.NumBlocks())
		listed := true
		walkLeaves(idx.root, func(l *node) {
			listed = listed && len(l.blocks) > 0
			for _, id := range l.blocks {
				count[id]++
			}
		})
		for id, c := range count {
			if base := !idx.store.Peek(id).Inserted; base && c != 1 || !base && c != 0 {
				return false
			}
		}
		return listed && idx.repacks > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestBlockListOrderMatchesIDs: at build time, the leaves' block lists,
// left to right, name the blocks in id order, and no block links to
// another: a base block's links are its overflow chain, and a build makes
// none.
func TestBlockListOrderMatchesIDs(t *testing.T) {
	pts := dataset.Generate(dataset.OSMLike, 4000, 3)
	idx := New(pts, testOptions())
	want := 0
	walkLeaves(idx.root, func(l *node) {
		for _, id := range l.blocks {
			b := idx.store.Peek(int(id))
			if b.ID != want || b.Inserted || b.Prev != store.NilBlock || b.Next != store.NilBlock {
				t.Fatalf("list order broken: got block %d (inserted %v, links %d, %d), want %d",
					b.ID, b.Inserted, b.Prev, b.Next, want)
			}
			want++
		}
	})
	if want != idx.store.NumBlocks() {
		t.Fatalf("lists cover %d of %d blocks", want, idx.store.NumBlocks())
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
			for _, id := range n.blocks {
				for _, cid := range chainOf(idx, int(id)) {
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
// property that grouping by the cuts makes routing exact.
func TestDescentMatchesBuildGrouping(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 6000, 6)
	idx := New(pts, testOptions())
	for _, p := range pts {
		leaf, path := idx.descendPath(p, nil)
		if leaf == nil {
			t.Fatalf("descent dead-ended for %v", p)
		}
		found := false
		for _, id := range leaf.blocks {
			for _, cid := range chainOf(idx, int(id)) {
				if idx.store.Peek(cid).Find(p) >= 0 {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("point %v not stored under its descent leaf %v", p, leaf.blocks)
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
	walkLeaves(idx.root, func(*node) { count++ })
	if s := idx.Stats(); count != s.Models {
		t.Errorf("walked %d leaf models, Stats says %d", count, s.Models)
	}
	leafPoints := 0
	walkLeaves(idx.root, func(l *node) { leafPoints += l.points })
	if leafPoints != idx.Len() {
		t.Errorf("leaf point counters sum to %d, Len() = %d", leafPoints, idx.Len())
	}
}

// TestWindowSubsetOfExact: over random indexes and windows, the window
// answer is exactly a linear scan's: no false positive, no miss.
func TestWindowSubsetOfExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := dataset.Generate(dataset.Skewed, 1500, seed)
		idx := New(pts, Options{
			BlockCapacity:      20,
			PartitionThreshold: 400,
			Epochs:             10,
			Seed:               seed,
		})
		for i := 0; i < 10; i++ {
			q := geom.RectAround(
				geom.Pt(rng.Float64(), rng.Float64()),
				0.2*rng.Float64(), 0.2*rng.Float64())
			got, want := idx.WindowQuery(q), index.NewLinear(pts).WindowQuery(q)
			if len(got) != len(want) || index.Recall(got, want) != 1 {
				return false
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
		Epochs:             10,
		Seed:               1,
	})
	for _, p := range pts {
		if !idx.PointQuery(p) {
			t.Fatalf("point %v lost under tiny threshold", p)
		}
	}
}

// TestKNNBestMatchesFullSort: a best-first walk's candidate set holds, after every merged group of points, the k-th distance of
// everything offered so far as its bound, and ends with exactly the first k
// of SortByDistance over it: the same distances in the same order and,
// among equidistant points, the canonical order. Group sizes run from empty
// to several blocks' worth and coordinates come from a coarse grid, so ties
// are everywhere, at the k-th place too. Each trial returns the set's
// storage to its pool, so later trials reset one that has been used.
func TestKNNBestMatchesFullSort(t *testing.T) {
	for _, k := range []int{1, 25, 625} {
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 12; trial++ {
			q := geom.Pt(float64(rng.Intn(12)), float64(rng.Intn(12)))
			if trial == 0 {
				q.X = 1e300 // every distance overflows to +Inf: the canonical order alone decides
			}
			var w index.Walk[int]
			w.Reset(q, k)
			var all []geom.Point
			for len(all) < 3*k+200 {
				group := make([]geom.Point, rng.Intn(250))
				for i := range group {
					group[i] = geom.Pt(float64(rng.Intn(12)), float64(rng.Intn(12)))
					if rng.Intn(4) == 0 { // a quarter off the grid: distinct distances too
						group[i].X += rng.Float64()
					}
				}
				w.Offer(group...)
				all = append(all, group...)

				want := append([]geom.Point(nil), all...)
				index.SortByDistance(want, q)
				if w.Full() != (len(all) >= k) {
					t.Fatalf("k=%d after %d points: full=%v", k, len(all), w.Full())
				}
				if w.Full() && w.Bound() != q.Dist2(want[k-1]) {
					t.Fatalf("k=%d after %d points: Bound() = %v, k-th distance is %v", k, len(all), w.Bound(), q.Dist2(want[k-1]))
				}
			}
			want := append([]geom.Point(nil), all...)
			index.SortByDistance(want, q)
			want = want[:min(k, len(want))]
			got := w.Points()
			if len(got) != len(want) {
				t.Fatalf("k=%d trial %d: %d candidates, want %d", k, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d trial %d: rank %d is %v (d²=%v), full sort has %v (d²=%v)",
						k, trial, i, got[i], q.Dist2(got[i]), want[i], q.Dist2(want[i]))
				}
			}
		}
	}
}

// TestCursorMatchesListWalk: over random ranges of a leaf's positions —
// empty, reversed and out-of-range ones included — the index cursor yields
// the blocks, names the chain bases and their positions and counts the
// reads that walking the leaf's list and following Next through each chain
// (refScan) does; through overflow-chain growth, repacks, a snapshot reload
// and a rebuild, on both curves.
func TestCursorMatchesListWalk(t *testing.T) {
	for _, curve := range []sfc.Kind{sfc.Hilbert, sfc.Z} {
		rng := rand.New(rand.NewSource(7))
		opts := testOptions()
		opts.Curve = curve
		opts.Epochs = 10
		idx := New(dataset.Generate(dataset.Skewed, 2000, 43), opts)
		check := func(stage string) {
			t.Helper()
			var leaves []*node
			walkLeaves(idx.root, func(l *node) { leaves = append(leaves, l) })
			for i := 0; i < 300; i++ {
				leaf := leaves[rng.Intn(len(leaves))]
				begin, end := rng.Intn(len(leaf.blocks)+4)-2, rng.Intn(len(leaf.blocks)+4)-2
				if i%3 == 0 {
					end = begin + rng.Intn(4)
				}
				type step struct{ id, base, pos int }
				var want, got []step
				wantReads := 0
				refScan(idx, leaf, begin, end, &wantReads, func(b *store.Block, pos int) bool {
					want = append(want, step{b.ID, int(leaf.blocks[pos]), pos})
					return true
				})
				c := idx.scan(leaf, begin, end)
				for id := c.next(); id != store.NilBlock; id = c.next() {
					got = append(got, step{id, c.base, c.pos})
				}
				if !slices.Equal(got, want) || c.reads != wantReads {
					t.Fatalf("%v, %s: scan(%d, %d) yielded %v in %d reads, the list walk %v in %d",
						curve, stage, begin, end, got, c.reads, want, wantReads)
				}
			}
		}
		check("built")
		// Bursts into a few spots grow chains of several blocks, some of them
		// hung off the last base block of a leaf, and repack the leaves.
		built := idx.store.NumBlocks()
		first, last := firstLeaf(idx.root), idx.descend(geom.Pt(1, 1))
		for _, hot := range []geom.Point{idx.store.Peek(int(first.blocks[0])).Slots()[0],
			idx.store.Peek(int(last.blocks[len(last.blocks)-1])).Slots()[0],
			idx.store.Peek(built / 2).Slots()[0], {X: rng.Float64(), Y: rng.Float64()}} {
			for i := 0; i < 5*opts.BlockCapacity; i++ {
				idx.Insert(geom.Pt(hot.X+1e-6*rng.Float64(), hot.Y+1e-6*rng.Float64()))
			}
			check("chains grown")
		}
		if idx.store.NumBlocks() < built+8 || idx.repacks == 0 {
			t.Fatalf("bursts grew only %d blocks, in %d repacks", idx.store.NumBlocks()-built, idx.repacks)
		}
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

// TestCurveOptionsProduceDifferentOrders: Hilbert and Z orderings must not
// silently collapse into the same structure.
func TestCurveOptionsProduceDifferentOrders(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 2000, 9)
	h := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 500, Epochs: 5, Seed: 1, Curve: sfc.Hilbert})
	z := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 500, Epochs: 5, Seed: 1, Curve: sfc.Z})
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
