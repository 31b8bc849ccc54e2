package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/store"
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
	for _, w := range workload.Windows(all, 80, 0.01, 1, 24) {
		got := idx.WindowQuery(w)
		for _, p := range got {
			if !w.Contains(p) {
				t.Fatalf("false positive %v after inserts", p)
			}
		}
		// Windows stay exact through insertions.
		if want := oracle.WindowQuery(w); index.Recall(got, want) != 1 || len(got) != len(want) {
			t.Fatalf("window wrong after inserts: %d vs %d", len(got), len(want))
		}
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
	for _, q := range workload.KNNPoints(all, 40, 26) {
		if got, want := idx.KNN(q, 10), oracle.KNN(q, 10); !slices.Equal(got, want) {
			t.Fatalf("KNN(%v, 10) after inserts = %v, linear scan %v", q, got, want)
		}
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
		got := idx.WindowQuery(w)
		want := oracle.WindowQuery(w)
		if len(got) != len(want) || index.Recall(got, want) != 1 {
			t.Fatalf("window after deletes: %d vs %d", len(got), len(want))
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
	for id := range idx.store.NumBlocks() {
		if idx.store.Peek(id).Inserted {
			t.Fatalf("overflow block %d survived the rebuild", id)
		}
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
		case 3: // window
			c := geom.Pt(rng.Float64(), rng.Float64())
			w := geom.RectAround(c, 0.1, 0.1)
			got := idx.WindowQuery(w)
			want := oracle.WindowQuery(w)
			if len(got) != len(want) || index.Recall(got, want) != 1 {
				t.Fatalf("window diverged: %d vs %d", len(got), len(want))
			}
		}
		if idx.Len() != oracle.Len() {
			t.Fatalf("Len diverged: %d vs %d", idx.Len(), oracle.Len())
		}
	}
}

// TestInsertWalksChainInPlace: an insert counts one access to locate the
// base block, then one per block of its chain it walks — up to the first
// with space, the whole chain only when none has space — and an
// insert→delete pair into a chain with space allocates nothing. The search
// for the home block compares cached MBRs and counts no access, as the exact
// walk's skipped blocks do. The points are filed without the repack Insert
// adds (file), so the chain grows four blocks long; the next Insert repacks
// the leaf, and an insert→delete pair into a repacked block's room
// allocates nothing either.
func TestInsertWalksChainInPlace(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 3000, 7)
	opts := testOptions()
	opts.PartitionThreshold = len(pts)
	idx := New(pts, opts)
	hot := pts[0]
	leaf := idx.descend(hot)
	// homeOf is the base block Insert files p under.
	homeOf := func(p geom.Point) int {
		l := idx.descend(p)
		lo, hi, _ := idx.cellBlocks(l, idx.leafCell(l, p))
		return idx.home(l, lo, hi, p)
	}
	base := idx.store.Peek(homeOf(hot))
	// Points beside hot that the cells and the home rule send to hot's home
	// block.
	rng := rand.New(rand.NewSource(5))
	beside := func() geom.Point {
		for {
			p := geom.Pt(hot.X+1e-9*rng.Float64(), hot.Y+1e-9*rng.Float64())
			if idx.descend(p) == leaf && homeOf(p) == base.ID {
				return p
			}
		}
	}
	for i := 0; i < 4*idx.opts.BlockCapacity; i++ {
		chain := chainOf(idx, base.ID)
		want := len(chain)
		for j, id := range chain {
			if idx.store.Peek(id).HasSpace() {
				want = j + 1
				break
			}
		}
		before := idx.Accesses()
		idx.file(beside())
		if got := idx.Accesses() - before; got != int64(1+want) {
			t.Fatalf("insert into a chain of %d blocks, the first with space its block %d, counted %d accesses, want %d",
				len(chain), want, got, 1+want)
		}
	}
	if chain := len(chainOf(idx, base.ID)); chain < 4 || idx.repacks > 0 {
		t.Fatalf("hot spot grew a chain of only %d blocks, or repacked (%d)", chain, idx.repacks)
	}
	p := beside()
	idx.file(p) // the chain has space from here on, whatever it had before
	idx.Delete(p)
	pair := func(insert func(geom.Point) *node) func() {
		return func() {
			insert(p)
			if !idx.Delete(p) {
				t.Fatal("inserted point not found")
			}
		}
	}
	if n := testing.AllocsPerRun(200, pair(idx.file)); n != 0 {
		t.Errorf("insert→delete into a chain with space allocates %v times, want 0", n)
	}
	idx.Insert(p)
	idx.Delete(p)
	if idx.repacks != 1 || len(chainOf(idx, base.ID)) != 1 {
		t.Fatalf("the leaf past its share repacked %d times and left a chain of %d blocks", idx.repacks, len(chainOf(idx, base.ID)))
	}
	insert := func(p geom.Point) *node { idx.Insert(p); return nil }
	if n := testing.AllocsPerRun(200, pair(insert)); n != 0 {
		t.Errorf("insert→delete into a repacked leaf allocates %v times, want 0", n)
	}
}

// TestInsertsKeepOverflowBlocksTight: inserts file each point beside its
// spatial neighbours inside its prediction's span, so an overflow block's
// MBR stays about as small as a base block's. Filed under the predicted
// block instead (§5 as written), an overflow block gathers points from the
// several blocks the leaf's error spreads one prediction over, and its MBR
// covers their whole region: there the ratio below read 1.46, here 0.81.
func TestInsertsKeepOverflowBlocksTight(t *testing.T) {
	pts := dataset.Generate(dataset.OSMLike, 50_000, 7)
	idx := New(pts, Options{Epochs: 10, Seed: 1})
	ins := jittered(pts, len(pts)/2, 31)
	for _, p := range ins {
		idx.Insert(p)
	}
	for _, p := range workload.DeleteSample(append(pts, ins...), len(pts)*15/100, 32) {
		if !idx.Delete(p) {
			t.Fatalf("delete of indexed point %v found nothing", p)
		}
	}
	var margin [2]float64
	var count [2]int
	for id, r := range idx.blockMBR {
		if r.IsEmpty() {
			continue // a block a repack left over, or one emptied and reused
		}
		kind := 0
		if idx.store.Peek(id).Inserted {
			kind = 1
		}
		margin[kind] += r.Margin()
		count[kind]++
	}
	if count[1] == 0 {
		t.Fatal("no overflow block was allocated")
	}
	ratio := (margin[1] / float64(count[1])) / (margin[0] / float64(count[0]))
	t.Logf("%d base blocks, %d overflow blocks; mean overflow perimeter / mean base perimeter = %.2f", count[0], count[1], ratio)
	if ratio > 1.1 {
		t.Errorf("mean overflow-block perimeter is %.2f× the base blocks', want ≤ 1.1×", ratio)
	}
}

// TestEmptyOverflowBlocksAreReused: an overflow block that deletes empty is
// chained under the next home that needs a block instead of a new one, so
// insert→delete pairs spread over the whole index grow the store by one
// block at most. Which block is reused depends only on the blocks'
// contents, so a reloaded copy places further inserts as the saved index
// does, byte for byte.
func TestEmptyOverflowBlocksAreReused(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 3000)
	blocks := idx.store.NumBlocks()
	for _, p := range jittered(pts, 500, 41) {
		idx.Insert(p)
		if !idx.Delete(p) {
			t.Fatalf("inserted point %v not found", p)
		}
	}
	if grown := idx.store.NumBlocks() - blocks; grown > 1 {
		t.Fatalf("500 insert→delete pairs allocated %d overflow blocks, want at most 1", grown)
	}

	// Filed without the repacks Insert would set off (file), the inserts
	// grow chains that the deletes then empty.
	ins := jittered(pts, 400, 42)
	for _, p := range ins {
		idx.file(p)
	}
	for _, p := range ins[:300] {
		idx.Delete(p)
	}
	if idx.empty.n < 2 {
		t.Fatalf("only %d empty overflow blocks to reuse", idx.empty.n)
	}
	var saved bytes.Buffer
	if _, err := idx.WriteTo(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	more := jittered(pts, 300, 43)
	for _, p := range more {
		idx.Insert(p)
		loaded.Insert(p)
	}
	var a, b bytes.Buffer
	if _, err := idx.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("the reloaded index placed inserts otherwise than the saved one")
	}
	for _, p := range append(append(pts, ins[300:]...), more...) {
		if !loaded.PointQuery(p) {
			t.Fatalf("point %v lost", p)
		}
	}
}

// TestRepackDeterministic: a leaf repacks when its overflow chains pass
// their share, and how it repacks depends only on its blocks' contents. So
// an index that keeps inserting (and deleting) and a copy saved and loaded
// halfway through, given the same writes, repack the same leaves at the same
// inserts and write byte-identical snapshots, with many repacks on either
// side of the reload.
func TestRepackDeterministic(t *testing.T) {
	idx, pts := buildTest(t, dataset.OSMLike, 6000)
	ins := jittered(pts, 6000, 46)
	apply := func(x *RSMI, from, to int) {
		for i := from; i < to; i++ {
			x.Insert(ins[i])
			if i%3 == 0 && !x.Delete(ins[i/2]) {
				t.Fatalf("delete of inserted %v found nothing", ins[i/2])
			}
		}
	}
	apply(idx, 0, len(ins)/2)
	before := idx.repacks
	loaded := roundTrip(t, idx)
	apply(idx, len(ins)/2, len(ins))
	apply(loaded, len(ins)/2, len(ins))
	if before < 10 || idx.repacks-before < 10 || loaded.repacks != idx.repacks {
		t.Fatalf("repacks: %d before the reload, %d after it, %d on the loaded copy", before, idx.repacks, loaded.repacks)
	}
	var a, b bytes.Buffer
	if _, err := idx.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("the loaded copy repacked otherwise than the index it was saved from")
	}
}

// jittered returns count distinct copies of points of pts, each moved by up
// to 1e-4 on either axis: new points beside existing ones, as a growing data
// set sends them.
func jittered(pts []geom.Point, count int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[geom.Point]bool, len(pts)+count)
	for _, p := range pts {
		seen[p] = true
	}
	out := make([]geom.Point, 0, count)
	for len(out) < count {
		c := pts[rng.Intn(len(pts))]
		p := geom.Pt(min(1, max(0, c.X+(rng.Float64()-0.5)*2e-4)), min(1, max(0, c.Y+(rng.Float64()-0.5)*2e-4)))
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkAfterInserts measures the index one embed-write shard ends with:
// 100k OSM-like points with the paper's B and N at 10 epochs, grown by half
// as many jittered copies and shrunk by 15 % deletes. insert and delete time
// single updates of fresh jittered points on it, restoring the index
// untimed after each chunk; point, window (the default size, into a warm
// buffer) and knn (k = 25) are the reads the sharded engine serves, with
// blocks/op; window_fresh is window on a fresh build over the same live
// points, what the repacks aim at.
func BenchmarkAfterInserts(b *testing.B) {
	pts := dataset.Generate(dataset.OSMLike, 100_000, 1)
	idx := New(pts, Options{Epochs: 10, Seed: 1})
	ins := jittered(pts, len(pts)/2, 2)
	for _, p := range ins {
		idx.Insert(p)
	}
	for _, p := range workload.DeleteSample(append(pts, ins...), len(pts)*15/100, 3) {
		idx.Delete(p)
	}
	live := idx.AllPoints()
	fresh := jittered(live, 4096, 4)
	// updates runs b.N updates of fresh points through chunks of fresh, the
	// timed op then its untimed undo.
	updates := func(b *testing.B, op, undo func(geom.Point)) {
		b.ReportAllocs()
		b.StopTimer()
		for done := 0; done < b.N; {
			chunk := fresh[:min(len(fresh), b.N-done)]
			if undo == nil {
				// Time the delete: insert the chunk untimed first.
				for _, p := range chunk {
					idx.Insert(p)
				}
			}
			b.StartTimer()
			for _, p := range chunk {
				op(p)
			}
			b.StopTimer()
			if undo != nil {
				for _, p := range chunk {
					undo(p)
				}
			}
			done += len(chunk)
		}
	}
	del := func(p geom.Point) {
		if !idx.Delete(p) {
			b.Fatalf("inserted point %v not found", p)
		}
	}
	b.Run("insert", func(b *testing.B) { updates(b, idx.Insert, del) })
	b.Run("delete", func(b *testing.B) { updates(b, del, nil) })

	points := workload.PointQueries(live, 4096, 5)
	windows := workload.Windows(live, 1024, workload.DefaultWindowSize, workload.DefaultAspectRatio, 6)
	knn := workload.KNNPoints(live, 1024, 7)
	built := New(live, Options{Epochs: 10, Seed: 1})
	var buf []geom.Point
	for _, c := range []struct {
		name string
		idx  *RSMI
		fn   func(i int)
	}{
		{"point", idx, func(i int) { idx.PointQuery(points[i%len(points)]) }},
		{"window", idx, func(i int) { buf = idx.windowQueryAppend(buf[:0], windows[i%len(windows)]) }},
		{"window_fresh", built, func(i int) { buf = built.windowQueryAppend(buf[:0], windows[i%len(windows)]) }},
		{"knn", idx, func(i int) { idx.KNN(knn[i%len(knn)], workload.DefaultK) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			c.idx.ResetAccesses()
			for i := 0; i < b.N; i++ {
				c.fn(i)
			}
			b.ReportMetric(float64(c.idx.Accesses())/float64(b.N), "blocks/op")
		})
	}
}

// BenchmarkRepackLeaf times one repack of an OSM-like leaf of 1000 points,
// 125 of them — one in eight — in overflow chains, beside buildLeaf over
// the same points: what Insert pays when a leaf crosses its share, against
// rebuilding the leaf from scratch. The 125 points are filed without the
// repacks Insert would set off (file), so the repack gathers the chains of
// a leaf grown by an eighth. Each repack runs on a copy of the leaf grown
// untimed, 64 copies at a time with a collection after them, so the setup's
// garbage is not collected on the clock; allocs/op counts the blocks the
// repack grows.
func BenchmarkRepackLeaf(b *testing.B) {
	pts := dataset.Generate(dataset.OSMLike, 875, 1)
	opts := Options{PartitionThreshold: 1000, Seed: 1}
	grown := func() *RSMI {
		idx := New(pts, opts)
		for _, p := range jittered(pts, 125, 2) {
			idx.file(p)
		}
		return idx
	}
	idx := grown()
	if !idx.root.leaf || idx.root.overflow*8 < idx.Len()*9/10 {
		b.Fatalf("want one leaf holding about 1/8 overflow: leaf %v, %d of %d points", idx.root.leaf, idx.root.overflow, idx.Len())
	}
	live := idx.AllPoints()
	idx.repack(idx.root) // the first repack makes the pooled scratch
	b.Run("repack", func(b *testing.B) {
		b.ReportAllocs()
		b.StopTimer()
		copies := make([]*RSMI, 64)
		for done := 0; done < b.N; done += len(copies) {
			copies = copies[:min(len(copies), b.N-done)]
			for i := range copies {
				copies[i] = grown()
			}
			runtime.GC()
			b.StartTimer()
			for _, c := range copies {
				c.repack(c.root)
			}
			b.StopTimer()
		}
	})
	b.Run("buildLeaf", func(b *testing.B) {
		b.ReportAllocs()
		work := make([]geom.Point, len(live))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(work, live)
			t := &RSMI{opts: opts.withDefaults(), store: store.NewManager(0), cellGrids: leafGrids(opts.Curve)}
			b.StartTimer()
			t.buildLeaf(work, 1)
		}
	})
}
