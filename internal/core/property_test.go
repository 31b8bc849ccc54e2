package core

import (
	"math/rand"
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
				for _, cid := range idx.store.Chain(idx.store.Peek(id)) {
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
			for _, cid := range idx.store.Chain(idx.store.Peek(id)) {
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

// knnHeap unit tests: the bounded max-heap at the centre of Algorithm 3.
func TestKNNHeapBasics(t *testing.T) {
	q := geom.Pt(0, 0)
	h := &knnHeap{q: q, k: 3}
	if h.worst() != h.worst() || h.Len() != 0 {
		t.Fatal("fresh heap broken")
	}
	pts := []geom.Point{{X: 5, Y: 0}, {X: 1, Y: 0}, {X: 3, Y: 0}, {X: 2, Y: 0}, {X: 4, Y: 0}}
	for _, p := range pts {
		h.offer(p)
	}
	if h.Len() != 3 {
		t.Fatalf("heap len = %d, want 3", h.Len())
	}
	got := h.sorted()
	want := []float64{1, 2, 3}
	for i, p := range got {
		if p.X != want[i] {
			t.Fatalf("sorted[%d] = %v, want x=%v", i, p, want[i])
		}
	}
}

func TestKNNHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := geom.Pt(rng.Float64(), rng.Float64())
		k := 1 + rng.Intn(20)
		h := &knnHeap{q: q, k: k}
		var all []geom.Point
		n := k + rng.Intn(100)
		for i := 0; i < n; i++ {
			p := geom.Pt(rng.Float64(), rng.Float64())
			all = append(all, p)
			h.offer(p)
		}
		got := h.sorted()
		// Compare against a full sort.
		type dp struct {
			d float64
			p geom.Point
		}
		ds := make([]dp, len(all))
		for i, p := range all {
			ds[i] = dp{q.Dist2(p), p}
		}
		for i := 1; i < len(ds); i++ {
			for j := i; j > 0 && ds[j].d < ds[j-1].d; j-- {
				ds[j], ds[j-1] = ds[j-1], ds[j]
			}
		}
		if len(got) != min(k, n) {
			return false
		}
		for i := range got {
			if q.Dist2(got[i]) != ds[i].d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
