package core

import (
	"math/rand"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

func TestInsertThenFind(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 2000)
	ins := workload.InsertPoints(pts, 1000, 21)
	for _, p := range ins {
		idx.Insert(p)
	}
	if idx.Len() != 3000 {
		t.Fatalf("Len = %d, want 3000", idx.Len())
	}
	for i, p := range ins {
		if !idx.PointQuery(p) {
			t.Fatalf("inserted point %d (%v) not found", i, p)
		}
	}
	// Original points must remain findable.
	for _, p := range pts {
		if !idx.PointQuery(p) {
			t.Fatalf("pre-existing point %v lost after inserts", p)
		}
	}
}

func TestInsertedSinceRebuildCounter(t *testing.T) {
	idx, pts := buildTest(t, dataset.Uniform, 1000)
	if idx.InsertedSinceRebuild() != 0 {
		t.Fatal("fresh index has nonzero insert counter")
	}
	for _, p := range workload.InsertPoints(pts, 50, 22) {
		idx.Insert(p)
	}
	if idx.InsertedSinceRebuild() != 50 {
		t.Errorf("counter = %d, want 50", idx.InsertedSinceRebuild())
	}
	idx.Rebuild()
	if idx.InsertedSinceRebuild() != 0 {
		t.Error("rebuild did not reset counter")
	}
}

func TestWindowAfterInsertsNoFalsePositivesAndFindsInserted(t *testing.T) {
	idx, pts := buildTest(t, dataset.Normal, 2000)
	ins := workload.InsertPoints(pts, 600, 23)
	for _, p := range ins {
		idx.Insert(p)
	}
	all := append(append([]geom.Point(nil), pts...), ins...)
	oracle := index.NewLinear(all)
	exact := idx.AsExact()
	ws := workload.Windows(all, 80, 0.01, 1, 24)
	var recall float64
	for _, w := range ws {
		got := idx.WindowQuery(w)
		for _, p := range got {
			if !w.Contains(p) {
				t.Fatalf("false positive %v after inserts", p)
			}
		}
		want := oracle.WindowQuery(w)
		recall += index.Recall(got, want)
		// Exact variant stays exact through insertions.
		if eg := exact.WindowQuery(w); index.Recall(eg, want) != 1 || len(eg) != len(want) {
			t.Fatalf("exact window wrong after inserts: %d vs %d", len(eg), len(want))
		}
	}
	if avg := recall / float64(len(ws)); avg < 0.7 {
		t.Errorf("window recall after inserts = %.3f", avg)
	}
}

func TestKNNAfterInserts(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 2000)
	ins := workload.InsertPoints(pts, 600, 25)
	for _, p := range ins {
		idx.Insert(p)
	}
	all := append(append([]geom.Point(nil), pts...), ins...)
	oracle := index.NewLinear(all)
	var recall float64
	qs := workload.KNNPoints(all, 40, 26)
	for _, q := range qs {
		recall += index.KNNRecall(idx.KNN(q, 10), oracle.KNN(q, 10), q)
	}
	if avg := recall / float64(len(qs)); avg < 0.7 {
		t.Errorf("kNN recall after inserts = %.3f", avg)
	}
}

func TestDelete(t *testing.T) {
	idx, pts := buildTest(t, dataset.Uniform, 1500)
	del := workload.DeleteSample(pts, 500, 27)
	for _, p := range del {
		if !idx.Delete(p) {
			t.Fatalf("Delete(%v) returned false for indexed point", p)
		}
	}
	if idx.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", idx.Len())
	}
	deleted := make(map[geom.Point]struct{}, len(del))
	for _, p := range del {
		deleted[p] = struct{}{}
		if idx.PointQuery(p) {
			t.Fatalf("deleted point %v still found", p)
		}
		if idx.Delete(p) {
			t.Fatalf("double delete of %v returned true", p)
		}
	}
	for _, p := range pts {
		if _, gone := deleted[p]; gone {
			continue
		}
		if !idx.PointQuery(p) {
			t.Fatalf("survivor %v lost after deletions", p)
		}
	}
}

func TestDeleteAbsent(t *testing.T) {
	idx, _ := buildTest(t, dataset.Uniform, 500)
	if idx.Delete(geom.Pt(5, 5)) {
		t.Error("deleting absent point returned true")
	}
	if idx.Len() != 500 {
		t.Error("failed delete changed Len")
	}
}

func TestDeleteThenQueries(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 2000)
	del := workload.DeleteSample(pts, 700, 28)
	gone := make(map[geom.Point]struct{}, len(del))
	for _, p := range del {
		idx.Delete(p)
		gone[p] = struct{}{}
	}
	var live []geom.Point
	for _, p := range pts {
		if _, g := gone[p]; !g {
			live = append(live, p)
		}
	}
	oracle := index.NewLinear(live)
	// Deleted points must never appear in any query answer.
	for _, w := range workload.Windows(pts, 60, 0.02, 1, 29) {
		for _, p := range idx.WindowQuery(w) {
			if _, g := gone[p]; g {
				t.Fatalf("deleted point %v in window answer", p)
			}
		}
		got := idx.AsExact().WindowQuery(w)
		want := oracle.WindowQuery(w)
		if len(got) != len(want) || index.Recall(got, want) != 1 {
			t.Fatalf("exact window after deletes: %d vs %d", len(got), len(want))
		}
	}
	for _, q := range workload.KNNPoints(live, 30, 30) {
		for _, p := range idx.KNN(q, 10) {
			if _, g := gone[p]; g {
				t.Fatalf("deleted point %v in kNN answer", p)
			}
		}
	}
}

func TestInsertReusesDeletedSlots(t *testing.T) {
	// Per §5 case (1): a block with space left by a deleted point accepts the
	// insertion without creating an overflow block.
	idx, pts := buildTest(t, dataset.Uniform, 1000)
	blocksBefore := idx.store.NumBlocks()
	// Delete then insert the same point: it must land in freed space.
	for i := 0; i < 200; i++ {
		idx.Delete(pts[i])
	}
	for i := 0; i < 200; i++ {
		idx.Insert(geom.Pt(pts[i].X+1e-9, pts[i].Y))
	}
	grown := idx.store.NumBlocks() - blocksBefore
	if grown > 20 {
		t.Errorf("insert after delete created %d new blocks; slots not reused", grown)
	}
}

func TestRebuildPreservesContent(t *testing.T) {
	idx, pts := buildTest(t, dataset.OSMLike, 2000)
	ins := workload.InsertPoints(pts, 500, 31)
	for _, p := range ins {
		idx.Insert(p)
	}
	del := workload.DeleteSample(pts, 300, 32)
	gone := make(map[geom.Point]struct{})
	for _, p := range del {
		idx.Delete(p)
		gone[p] = struct{}{}
	}
	lenBefore := idx.Len()
	idx.Rebuild()
	if idx.Len() != lenBefore {
		t.Fatalf("rebuild changed Len: %d -> %d", lenBefore, idx.Len())
	}
	for _, p := range append(pts, ins...) {
		_, deleted := gone[p]
		if got := idx.PointQuery(p); got == deleted {
			t.Fatalf("after rebuild PointQuery(%v) = %v, deleted = %v", p, got, deleted)
		}
	}
	// Rebuild must clear overflow blocks: every block is a freshly packed
	// base block, and the count is at most one partial block per leaf above
	// the dense minimum.
	minBlocks := (idx.Len() + idx.opts.BlockCapacity - 1) / idx.opts.BlockCapacity
	if got := idx.store.NumBlocks(); got < minBlocks || got > minBlocks+idx.leaves {
		t.Errorf("blocks after rebuild = %d, want in [%d, %d]", got, minBlocks, minBlocks+idx.leaves)
	}
	if idx.baseBlocks != idx.store.NumBlocks() {
		t.Error("overflow blocks survived the rebuild")
	}
}

func TestRebuilderPolicy(t *testing.T) {
	idx, pts := buildTest(t, dataset.Uniform, 1000)
	r := idx.AsRebuilder()
	if r.Name() != "RSMIr" {
		t.Errorf("Name = %q", r.Name())
	}
	// Inserting 30% n with a 10% policy must trigger rebuilds, keeping the
	// outstanding insert counter below the threshold.
	for _, p := range workload.InsertPoints(pts, 300, 33) {
		r.Insert(p)
	}
	if got := r.InsertedSinceRebuild(); float64(got) >= 0.1*float64(r.Len()) {
		t.Errorf("rebuilder left %d outstanding inserts (n=%d)", got, r.Len())
	}
	if r.Len() != 1300 {
		t.Errorf("Len = %d, want 1300", r.Len())
	}
	if s := r.Stats(); s.Name != "RSMIr" {
		t.Errorf("Stats.Name = %q", s.Name)
	}
}

// Randomised end-to-end comparison against the Linear oracle: interleaved
// inserts, deletes, and queries must keep exactness for RSMIa and the
// no-false-negative guarantee for point queries.
func TestRandomOpsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts := dataset.Generate(dataset.Skewed, 1200, 34)
	idx := New(pts, testOptions())
	oracle := index.NewLinear(pts)
	pool := append([]geom.Point(nil), pts...)

	for op := 0; op < 400; op++ {
		switch rng.Intn(4) {
		case 0: // insert
			p := geom.Pt(rng.Float64(), rng.Float64())
			idx.Insert(p)
			oracle.Insert(p)
			pool = append(pool, p)
		case 1: // delete
			if len(pool) == 0 {
				continue
			}
			i := rng.Intn(len(pool))
			p := pool[i]
			gi := idx.Delete(p)
			go_ := oracle.Delete(p)
			if gi != go_ {
				t.Fatalf("delete disagreement for %v: rsmi=%v oracle=%v", p, gi, go_)
			}
			pool[i] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		case 2: // point queries
			if len(pool) == 0 {
				continue
			}
			p := pool[rng.Intn(len(pool))]
			if !idx.PointQuery(p) {
				t.Fatalf("false negative for %v", p)
			}
		case 3: // exact window
			c := geom.Pt(rng.Float64(), rng.Float64())
			w := geom.RectAround(c, 0.1, 0.1)
			got := idx.ExactWindow(w)
			want := oracle.WindowQuery(w)
			if len(got) != len(want) || index.Recall(got, want) != 1 {
				t.Fatalf("exact window diverged: %d vs %d", len(got), len(want))
			}
		}
		if idx.Len() != oracle.Len() {
			t.Fatalf("Len diverged: %d vs %d", idx.Len(), oracle.Len())
		}
	}
}

// TestInsertWalksChainInPlace: an insert counts what it always has — one
// access to locate the base block, then one per block of its chain — and an
// insert→delete pair into a chain with space allocates nothing.
func TestInsertWalksChainInPlace(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 3000)
	hot := pts[0]
	leaf := idx.descend(hot)
	base := idx.store.Peek(leaf.firstBlock + leaf.predictClamped(hot))
	// Points beside hot that the models send to hot's base block.
	rng := rand.New(rand.NewSource(5))
	beside := func() geom.Point {
		for {
			p := geom.Pt(hot.X+1e-9*rng.Float64(), hot.Y+1e-9*rng.Float64())
			if l := idx.descend(p); l == leaf && l.predictClamped(p) == base.ID-leaf.firstBlock {
				return p
			}
		}
	}
	for i := 0; i < 4*idx.opts.BlockCapacity; i++ {
		chain := len(chainOf(idx, base.ID))
		before := idx.Accesses()
		idx.Insert(beside())
		if got := idx.Accesses() - before; got != int64(1+chain) {
			t.Fatalf("insert into a chain of %d blocks counted %d accesses, want %d", chain, got, 1+chain)
		}
	}
	if chain := len(chainOf(idx, base.ID)); chain < 4 {
		t.Fatalf("hot spot grew a chain of only %d blocks", chain)
	}
	p := beside()
	idx.Insert(p) // the chain has space from here on, whatever it had before
	idx.Delete(p)
	if n := testing.AllocsPerRun(200, func() {
		idx.Insert(p)
		if !idx.Delete(p) {
			t.Fatal("inserted point not found")
		}
	}); n != 0 {
		t.Errorf("insert→delete into a chain with space allocates %v times, want 0", n)
	}
}
