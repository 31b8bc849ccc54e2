package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
	"rsmi/internal/workload"
)

// testOptions returns options scaled for fast unit tests: small blocks and
// partitions, so an index of a few thousand points has a root over many
// leaves of a few blocks. The training options are inert.
func testOptions() Options {
	return Options{
		BlockCapacity:      20,
		PartitionThreshold: 500,
		Epochs:             40,
		Seed:               1,
	}
}

func buildTest(t *testing.T, kind dataset.Kind, n int) (*RSMI, []geom.Point) {
	t.Helper()
	pts := dataset.Generate(kind, n, 7)
	return New(pts, testOptions()), pts
}

func TestPointQueryNoFalseNegatives(t *testing.T) {
	for _, kind := range dataset.All() {
		t.Run(kind.String(), func(t *testing.T) {
			idx, pts := buildTest(t, kind, 3000)
			if idx.Len() != len(pts) {
				t.Fatalf("Len = %d, want %d", idx.Len(), len(pts))
			}
			for i, p := range pts {
				if !idx.PointQuery(p) {
					t.Fatalf("point %d (%v) not found: false negative", i, p)
				}
			}
		})
	}
}

func TestPointQueryAbsentPoints(t *testing.T) {
	idx, _ := buildTest(t, dataset.Skewed, 2000)
	absents := []geom.Point{
		geom.Pt(-0.5, 0.5), geom.Pt(2, 2), geom.Pt(0.123456789, 0.987654321),
	}
	for _, p := range absents {
		if idx.PointQuery(p) {
			t.Errorf("absent point %v reported found", p)
		}
	}
}

func TestWindowQueryNoFalsePositives(t *testing.T) {
	idx, pts := buildTest(t, dataset.Normal, 3000)
	ws := workload.Windows(pts, 100, 0.01, 1, 3)
	for _, w := range ws {
		for _, p := range idx.WindowQuery(w) {
			if !w.Contains(p) {
				t.Fatalf("false positive %v for window %v", p, w)
			}
		}
	}
}

// TestExactWindowMatchesOracle demands of every window, on every data set,
// the answer a linear scan gives: windows of the default size and larger.
func TestExactWindowMatchesOracle(t *testing.T) {
	for _, kind := range dataset.All() {
		t.Run(kind.String(), func(t *testing.T) {
			idx, pts := buildTest(t, kind, 4000)
			oracle := index.NewLinear(pts)
			ws := append(workload.Windows(pts, 100, 0.01, 1, 4), workload.Windows(pts, 60, 0.02, 2, 5)...)
			for _, w := range ws {
				got := idx.WindowQuery(w)
				want := oracle.WindowQuery(w)
				if index.Recall(got, want) != 1 || len(got) != len(want) {
					t.Fatalf("window %v: got %d points, linear scan %d", w, len(got), len(want))
				}
			}
		})
	}
}

func TestKNNReturnsOnlyIndexedPoints(t *testing.T) {
	idx, pts := buildTest(t, dataset.Uniform, 1000)
	set := make(map[geom.Point]struct{}, len(pts))
	for _, p := range pts {
		set[p] = struct{}{}
	}
	for _, q := range workload.KNNPoints(pts, 20, 7) {
		for _, p := range idx.KNN(q, 5) {
			if _, ok := set[p]; !ok {
				t.Fatalf("kNN returned non-indexed point %v", p)
			}
		}
	}
}

// TestExactKNNMatchesOracle demands of kNN what a linear scan answers,
// point for point, equidistant points in the canonical order.
func TestExactKNNMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		kind dataset.Kind
		n    int
		seed int64
	}{{dataset.OSMLike, 3000, 8}, {dataset.Skewed, 4000, 6}} {
		idx, pts := buildTest(t, c.kind, c.n)
		oracle := index.NewLinear(pts)
		for _, q := range workload.KNNPoints(pts, 50, c.seed) {
			for _, k := range []int{1, 5, 10, 25} {
				got, want := idx.KNN(q, k), oracle.KNN(q, k)
				if !slices.Equal(got, want) {
					t.Fatalf("%s KNN(%v, %d) = %v, linear scan %v", c.kind, q, k, got, want)
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	idx, pts := buildTest(t, dataset.Uniform, 800)
	oracle := index.NewLinear(pts)
	q := geom.Pt(0.5, 0.5)
	if got := idx.KNN(q, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	if got := idx.KNN(q, len(pts)+100); len(got) != len(pts) {
		t.Errorf("k>n returned %d, want %d", len(got), len(pts))
	}
	// Queries far outside the data still find their k nearest.
	for _, far := range []geom.Point{geom.Pt(1e30, 1e30), geom.Pt(-1e6, 0.5), geom.Pt(1e18, -1e18)} {
		got, want := idx.KNN(far, 10), oracle.KNN(far, 10)
		if len(got) != len(want) {
			t.Fatalf("KNN(%v, 10) returned %d points, linear scan %d", far, len(got), len(want))
		}
		for i := range got {
			if far.Dist2(got[i]) != far.Dist2(want[i]) {
				t.Fatalf("KNN(%v, 10) rank %d differs from the linear scan", far, i)
			}
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := New(nil, testOptions())
	if idx.Len() != 0 {
		t.Errorf("Len = %d", idx.Len())
	}
	if idx.PointQuery(geom.Pt(0.5, 0.5)) {
		t.Error("empty index found a point")
	}
	if got := idx.WindowQuery(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); len(got) != 0 {
		t.Errorf("empty window = %v", got)
	}
	if got := idx.KNN(geom.Pt(0.5, 0.5), 3); got != nil {
		t.Errorf("empty kNN = %v", got)
	}
	// Insert into empty index must bootstrap it.
	idx.Insert(geom.Pt(0.25, 0.75))
	if !idx.PointQuery(geom.Pt(0.25, 0.75)) || idx.Len() != 1 {
		t.Error("insert into empty index failed")
	}
}

func TestSinglePointIndex(t *testing.T) {
	p := geom.Pt(0.3, 0.4)
	idx := New([]geom.Point{p}, testOptions())
	if !idx.PointQuery(p) {
		t.Error("single point not found")
	}
	got := idx.KNN(geom.Pt(0.9, 0.9), 1)
	if len(got) != 1 || got[0] != p {
		t.Errorf("kNN on single-point index = %v", got)
	}
}

// TestErrorBoundsAreExact: every indexed point lies in the blocks of its
// cell — RSMI.cell, the lookup every query makes, then cellBlocks — which is
// what makes Algorithm 1 correct; and ErrorBounds, what Table 4 reports,
// is the widest cell's blocks less one.
func TestErrorBoundsAreExact(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Skewed} {
		idx, pts := buildTest(t, kind, 3000)
		widest := 0
		walkLeaves(idx.root, func(n *node) {
			for c := range len(n.starts) - 1 {
				lo, hi, _ := idx.cellBlocks(n, c)
				widest = max(widest, hi-lo+1)
			}
		})
		if errLow, errHigh := idx.ErrorBounds(); errLow != widest-1 || errHigh != 0 {
			t.Errorf("%v: ErrorBounds (%d, %d), widest cell %d blocks", kind, errLow, errHigh, widest)
		}
		for _, p := range pts {
			leaf := idx.descend(p)
			if leaf == nil {
				t.Fatalf("%v: no leaf for %v", kind, p)
			}
			lo, hi, _ := idx.cellBlocks(leaf, idx.cell(leaf, p))
			if blk, _ := refFind(idx, leaf, p, lo, hi, new(int)); blk == nil {
				t.Fatalf("%v: point %v outside the blocks [%d,%d] of its cell", kind, p, lo, hi)
			}
		}
	}
}

// TestPointSpansAreExact: the blocks a point query scans are exactly those
// its cell's points were packed in. Walking every leaf's build points in
// block order, each point's cell never falls back to an earlier one, so each
// cell's points are one run; a cell's prefix count is the number of points
// before that run, and its blocks (cellBlocks) are those the run was packed
// in, from the run's first slot, or, for an empty cell, the block its
// position falls in. A repack packs the same way, a fill of points a block:
// after inserts and deletes every leaf is repacked and checked again.
func TestPointSpansAreExact(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Skewed} {
		idx, pts := buildTest(t, kind, 3000)
		checkPointSpans(t, kind, idx)
		for _, p := range jittered(pts, 1500, 8) {
			idx.Insert(p)
		}
		for _, p := range pts[:1000] {
			idx.Delete(p)
		}
		forLeaves(idx.root, everywhere, idx.repack)
		checkPointSpans(t, kind, idx)
	}
}

// checkPointSpans is TestPointSpansAreExact over idx, whose leaves have no
// overflow chains.
func checkPointSpans(t *testing.T, kind dataset.Kind, idx *RSMI) {
	t.Helper()
	walkLeaves(idx.root, func(n *node) {
		b := n.fill
		cells := len(n.starts) - 1
		if cells != 1<<(2*n.order) {
			t.Fatalf("%v: leaf at block %d of order %d has %d cells", kind, n.blocks[0], n.order, cells)
		}
		count := make([]int, cells)
		first, last := make([]int, cells), make([]int, cells)
		prev, pos := 0, 0
		for _, id := range n.blocks {
			for _, p := range idx.store.Peek(int(id)).Slots() {
				c := idx.cell(n, p)
				if c < prev {
					t.Fatalf("%v: %v at position %d of the leaf at block %d is in cell %d, after cell %d",
						kind, p, pos, n.blocks[0], c, prev)
				}
				if count[c] == 0 {
					first[c] = pos
				}
				prev, last[c] = c, pos
				count[c]++
				pos++
			}
		}
		before := 0
		for c := range cells {
			lo, hi, slot := idx.cellBlocks(n, c)
			want := [3]int{first[c] / b, last[c] / b, first[c] % b}
			if count[c] == 0 {
				blk := min(before/b, len(n.blocks)-1)
				want = [3]int{blk, blk, before - blk*b}
			}
			if int(n.starts[c]) != before || [3]int{lo, hi, slot} != want {
				t.Fatalf("%v: leaf at block %d, cell %d: start %d, positions [%d,%d] from slot %d; its %d points after %d: %v",
					kind, n.blocks[0], c, n.starts[c], lo, hi, slot, count[c], before, want)
			}
			before += count[c]
		}
	})
}

// TestCountMatchesNotLess: the branch-free cut count of cell is
// the number of cuts p is not Less than — by (x, then y) for column cuts, by
// (y, then x) for row cuts — on the points a count can go wrong on: each
// cut itself, points tied with a cut on one coordinate either side of it,
// copies of one point straddling a cut, ±Inf on either coordinate and
// random points. A NaN point is found nowhere and deleted nowhere.
func TestCountMatchesNotLess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inf := math.Inf(1)
	for trial := 0; trial < 200; trial++ {
		// Cuts on a coarse lattice, so that ties on x, on y and whole copies
		// are common, sorted as each kind ascends.
		n := rng.Intn(8)
		cuts := make([]geom.Point, n)
		for i := range cuts {
			cuts[i] = geom.Pt(float64(rng.Intn(4)), float64(rng.Intn(4)))
		}
		byX := slices.Clone(cuts)
		slices.SortFunc(byX, geom.Point.Compare)
		byY := slices.Clone(cuts)
		slices.SortFunc(byY, func(a, b geom.Point) int {
			return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
		})
		var probes []geom.Point
		for _, c := range cuts {
			for _, d := range []float64{-1, -0.5, 0, 0.5, 1} {
				probes = append(probes, c, geom.Pt(c.X, c.Y+d), geom.Pt(c.X+d, c.Y))
			}
		}
		for _, v := range []float64{-inf, -1, 0, 1.5, 3, inf} {
			probes = append(probes, geom.Pt(v, 1), geom.Pt(1, v), geom.Pt(v, v), geom.Pt(v, -v))
		}
		for range 20 {
			probes = append(probes, geom.Pt(4*rng.Float64()-0.5, 4*rng.Float64()-0.5))
		}
		for _, p := range probes {
			if got, want := countX(byX, p), refNotBefore(byX, p, geom.Point.Less); got != want {
				t.Fatalf("countX(%v, %v) = %d, cuts not after it %d", byX, p, got, want)
			}
			if got, want := countY(byY, p), refNotBefore(byY, p, lessYX); got != want {
				t.Fatalf("countY(%v, %v) = %d, cuts not after it %d", byY, p, got, want)
			}
		}
	}
	idx, _ := buildTest(t, dataset.Skewed, 3000)
	for _, p := range []geom.Point{geom.Pt(math.NaN(), 0.5), geom.Pt(0.5, math.NaN()), geom.Pt(math.NaN(), math.NaN())} {
		if idx.PointQuery(p) || idx.Delete(p) {
			t.Errorf("a point query or delete of %v reported it found", p)
		}
	}
	if idx.Len() != 3000 {
		t.Errorf("Len %d after deleting NaN points, want 3000", idx.Len())
	}
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

func TestStatsSanity(t *testing.T) {
	idx, pts := buildTest(t, dataset.Normal, 4000)
	s := idx.Stats()
	if s.Name != "RSMI" {
		t.Errorf("Name = %q", s.Name)
	}
	if s.SizeBytes <= 0 || s.Blocks <= 0 || s.Models <= 0 {
		t.Errorf("implausible stats %+v", s)
	}
	if s.Height < 1 {
		t.Errorf("Height = %d", s.Height)
	}
	wantBlocks := (len(pts) + idx.opts.BlockCapacity - 1) / idx.opts.BlockCapacity
	if s.Blocks < wantBlocks {
		t.Errorf("Blocks = %d, want >= %d", s.Blocks, wantBlocks)
	}
	ad := idx.AvgDepth()
	if ad < 1 || ad > float64(s.Height) {
		t.Errorf("AvgDepth = %v outside [1, %d]", ad, s.Height)
	}
}

func TestDeterministicBuildAndQueries(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 2000, 9)
	a := New(pts, testOptions())
	b := New(pts, testOptions())
	sa, sb := a.Stats(), b.Stats()
	sa.BuildTime, sb.BuildTime = 0, 0 // wall time legitimately differs
	if sa != sb {
		t.Fatalf("same seed produced different structures:\n%+v\n%+v", sa, sb)
	}
	w := geom.Rect{MinX: 0.2, MinY: 0.0, MaxX: 0.4, MaxY: 0.1}
	ga, gb := a.WindowQuery(w), b.WindowQuery(w)
	if len(ga) != len(gb) {
		t.Errorf("same seed produced different answers: %d vs %d", len(ga), len(gb))
	}
}

func TestZCurveVariant(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 2500, 10)
	opts := testOptions()
	opts.Curve = sfc.Z
	idx := New(pts, opts)
	for _, p := range pts {
		if !idx.PointQuery(p) {
			t.Fatalf("Z-curve RSMI lost point %v", p)
		}
	}
	oracle := index.NewLinear(pts)
	for _, w := range workload.Windows(pts, 50, 0.01, 1, 11) {
		got, want := idx.WindowQuery(w), oracle.WindowQuery(w)
		if index.Recall(got, want) != 1 || len(got) != len(want) {
			t.Fatalf("Z-curve window %v: got %d points, linear scan %d", w, len(got), len(want))
		}
	}
}

func TestPartitionThresholdShapesTree(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 6000, 12)
	small := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 200, Epochs: 20, Seed: 1})
	large := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 6000, Epochs: 20, Seed: 1})
	ss, ls := small.Stats(), large.Stats()
	if ss.Models <= ls.Models {
		t.Errorf("smaller N must create more models: %d vs %d", ss.Models, ls.Models)
	}
	if ss.Height <= ls.Height {
		t.Errorf("smaller N must create a taller structure: %d vs %d", ss.Height, ls.Height)
	}
	if ls.Height != 1 || ls.Models != 1 {
		t.Errorf("N >= n must give a single leaf, got height=%d models=%d", ls.Height, ls.Models)
	}
	// Both must stay correct.
	for _, p := range pts[:300] {
		if !small.PointQuery(p) || !large.PointQuery(p) {
			t.Fatal("threshold variant lost a point")
		}
	}
}

func TestBlockAccessCounting(t *testing.T) {
	idx, pts := buildTest(t, dataset.Uniform, 3000)
	idx.ResetAccesses()
	if idx.Accesses() != 0 {
		t.Fatal("accesses not reset")
	}
	idx.PointQuery(pts[0])
	got := idx.Accesses()
	if got < 1 {
		t.Errorf("point query counted %d accesses, want >= 1", got)
	}
	_, errHigh := idx.ErrorBounds()
	errLow, _ := idx.ErrorBounds()
	if got > int64(errLow+errHigh+2) {
		t.Errorf("point query accessed %d blocks, beyond bound %d", got, errLow+errHigh+2)
	}
}

func TestStringSummary(t *testing.T) {
	idx, _ := buildTest(t, dataset.Uniform, 600)
	s := idx.String()
	if s == "" || len(s) < 10 {
		t.Errorf("String = %q", s)
	}
}

// TestBuildAllocs bounds what a build allocates: a 100k skewed build with
// the paper's B and N ranks its points once and sorts and groups them in
// one scratch for the whole build, so it allocates at most 115 bytes a
// point, as it did when the bound was set (11.4 MB with go1.24 on amd64,
// where each node ranking its points again took some 230). The bound is
// checked only there, and not under the race detector, whose
// instrumentation allocates besides.
func TestBuildAllocs(t *testing.T) {
	const n, perPoint = 100_000, 115
	pts := dataset.Generate(dataset.Skewed, n, 1)
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		idx := New(pts, Options{})
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if idx.Len() != n {
			t.Fatalf("built %d points of %d", idx.Len(), n)
		}
	}
	t.Logf("a %d-point build allocated %d bytes, %.1f a point", n, least, float64(least)/n)
	if !raceDetector && runtime.GOARCH == "amd64" && strings.HasPrefix(runtime.Version(), "go1.24") && least > n*perPoint {
		t.Errorf("a %d-point build allocated %d bytes, %.1f a point: more than %d", n, least, float64(least)/n, perPoint)
	}
}

// BenchmarkBuild100k builds one index over 100k skewed points with the
// paper's B and N: a root of grid cuts over 64 leaves, the shape one shard
// of the repo's benchmark has.
func BenchmarkBuild100k(b *testing.B) {
	pts := dataset.Generate(dataset.Skewed, 100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(pts, Options{})
	}
}

// BenchmarkBuild1M builds one index over 1M skewed points with the paper's
// B and N: the scale at which the build's shape (two levels of grid cuts
// over thousands of leaves) shows. It is skipped under -short.
func BenchmarkBuild1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-point build skipped in -short")
	}
	pts := dataset.Generate(dataset.Skewed, 1_000_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(pts, Options{})
	}
}

// benchIndex is the index the query benchmarks share: 100k skewed points
// with the paper's B and N, the shape of one shard of the repo's benchmark.
func benchIndex(b *testing.B) (*RSMI, []geom.Point) {
	b.Helper()
	pts := dataset.Generate(dataset.Skewed, 100_000, 1)
	return New(pts, Options{}), pts
}

// BenchmarkPointQuery runs Algorithm 1 over the index embed-read builds
// (200k skewed points), on indexed points (present) and on points beside
// them that are not indexed (absent), which read every block of their
// cell.
func BenchmarkPointQuery(b *testing.B) {
	pts := dataset.Generate(dataset.Skewed, 200_000, 1)
	idx := New(pts, Options{Epochs: 10, Seed: 1})
	present := workload.PointQueries(pts, 4096, 3)
	absent := workload.KNNPoints(pts, 4096, 3)
	for _, q := range absent {
		if idx.PointQuery(q) {
			b.Fatalf("probe %v is indexed", q)
		}
	}
	for _, c := range []struct {
		name string
		qs   []geom.Point
	}{{"present", present}, {"absent", absent}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			idx.ResetAccesses()
			for i := 0; i < b.N; i++ {
				idx.PointQuery(c.qs[i%len(c.qs)])
			}
			b.ReportMetric(float64(idx.Accesses())/float64(b.N), "blocks/op")
		})
	}
}

// BenchmarkKNNByK runs kNN over the k range of the paper's Fig. 16.
func BenchmarkKNNByK(b *testing.B) {
	idx, pts := benchIndex(b)
	qs := workload.KNNPoints(pts, 1024, 3)
	for _, k := range []int{1, 25, 125, 625} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			idx.ResetAccesses()
			for i := 0; i < b.N; i++ {
				idx.KNN(qs[i%len(qs)], k)
			}
			b.ReportMetric(float64(idx.Accesses())/float64(b.N), "blocks/op")
		})
	}
}

// BenchmarkWindowQuery runs windows of the paper's default size, appending
// into a warm buffer as the shard layer does.
func BenchmarkWindowQuery(b *testing.B) {
	idx, pts := benchIndex(b)
	qs := workload.Windows(pts, 1024, workload.DefaultWindowSize, workload.DefaultAspectRatio, 3)
	b.Run("default", func(b *testing.B) {
		var buf []geom.Point
		b.ReportAllocs()
		idx.ResetAccesses()
		for i := 0; i < b.N; i++ {
			buf = idx.windowQueryAppend(buf[:0], qs[i%len(qs)])
		}
		b.ReportMetric(float64(idx.Accesses())/float64(b.N), "blocks/op")
	})
}

// TestAvgDepthFollowsUpdates: AvgDepth counts the points that live in each
// leaf now, not the ones it was built with. A one-leaf index that doubles
// by insertion still reaches every point through one model, and after
// inserts and deletes in a deeper index the average is Σ points·depth over
// the leaves, divided by Len, and lies between 1 and the deepest leaf's
// depth, which is Stats().Height.
func TestAvgDepthFollowsUpdates(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 2000, 3)
	one := New(pts, Options{BlockCapacity: 50, PartitionThreshold: 4000, Epochs: 2, Seed: 1})
	for _, p := range dataset.Generate(dataset.Uniform, 2000, 4) {
		one.Insert(p)
	}
	if got := one.AvgDepth(); got != 1 {
		t.Fatalf("one-leaf index after doubling by insertion: AvgDepth = %v, want 1", got)
	}

	idx := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 200, Epochs: 2, Seed: 1})
	for _, p := range dataset.Generate(dataset.Skewed, 1500, 5) {
		idx.Insert(p)
	}
	for _, p := range pts[:1200] {
		idx.Delete(p)
	}
	var sum, deepest int64
	var walk func(n *node, depth int64)
	walk = func(n *node, depth int64) {
		if n == nil {
			return
		}
		if n.leaf {
			sum += int64(n.points) * depth
			deepest = max(deepest, depth)
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(idx.root, 1)
	if h := idx.Stats().Height; int64(h) != deepest {
		t.Fatalf("Height = %d, the deepest leaf is at %d", h, deepest)
	}
	got := idx.AvgDepth()
	if got < 1 || got > float64(deepest) {
		t.Fatalf("AvgDepth = %v outside [1, %d]", got, deepest)
	}
	if want := float64(sum) / float64(idx.Len()); got != want {
		t.Fatalf("AvgDepth = %v, want Σ points·depth / Len = %v", got, want)
	}
}

// checkDescent fails unless every point idx holds descends to the leaf whose
// blocks hold it.
func checkDescent(t *testing.T, stage string, idx *RSMI) {
	t.Helper()
	held := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		for _, c := range n.children {
			walk(c)
		}
		if !n.leaf {
			return
		}
		c := idx.scan(n, 0, len(n.blocks)-1)
		for id := c.next(); id != store.NilBlock; id = c.next() {
			for _, p := range idx.store.Peek(id).Slots() {
				held++
				if idx.descend(p) != n {
					t.Fatalf("%s: %v lies in block %d of the leaf at block %d and descends to another leaf", stage, p, id, n.blocks[0])
				}
			}
		}
	}
	walk(idx.root)
	if held != idx.Len() {
		t.Fatalf("%s: the leaves hold %d points, the index %d", stage, held, idx.Len())
	}
}

// TestCutsDescendExactly: descent follows the cuts the build grouped the
// points by, so every built and every inserted point descends to the leaf
// that holds it — also where copies of one point straddle a cut in the
// rank layout the cuts were read from, and where every point is the same
// one, which leaves all but one cell of the root empty: a point inserted
// into an empty cell is filed under the nearest cell's leaf and found there.
func TestCutsDescendExactly(t *testing.T) {
	// 800 distinct points, each one to five times over: cuts land on copies.
	var pts []geom.Point
	for i, p := range dataset.Generate(dataset.Skewed, 800, 31) {
		for range 1 + i%5 {
			pts = append(pts, p)
		}
	}
	idx := New(pts, testOptions())
	if idx.root.leaf {
		t.Fatal("the root is a leaf")
	}
	// A column cut straddles when fewer points than its rank position order
	// before it: its earlier copies were laid out in the column before.
	side := 1 << idx.root.order
	colSize := (len(pts) + side - 1) / side
	straddles := 0
	for j, cut := range idx.root.cols {
		before := 0
		for _, p := range pts {
			if p.Less(cut) {
				before++
			}
		}
		if before < (j+1)*colSize {
			straddles++
		}
	}
	if straddles == 0 {
		t.Fatal("no column cut of the root has copies on both sides")
	}
	checkDescent(t, "built with copies", idx)
	for i, p := range workload.InsertPoints(pts, 500, 32) {
		idx.Insert(p)
		idx.Insert(pts[3*i]) // another copy of a built point
	}
	for _, cut := range idx.root.cols {
		idx.Insert(cut)
	}
	checkDescent(t, "inserted", idx)

	same := make([]geom.Point, 2000)
	for i := range same {
		same[i] = geom.Pt(0.5, 0.25)
	}
	idx = New(same, testOptions())
	if idx.root.leaf || idx.Stats().Height != 2 {
		t.Fatalf("want one leaf below an internal root, got leaf %v, height %d", idx.root.leaf, idx.Stats().Height)
	}
	checkDescent(t, "all one point", idx)
	empty := 0
	for _, p := range dataset.Generate(dataset.Uniform, 300, 33) {
		if idx.root.children[idx.cell(idx.root, p)] == nil {
			empty++
		}
		idx.Insert(p)
		if !idx.PointQuery(p) {
			t.Fatalf("inserted %v not found", p)
		}
	}
	if empty == 0 {
		t.Fatal("no inserted point fell into an empty cell")
	}
	checkDescent(t, "all one point, then inserts", idx)
	if ad := idx.AvgDepth(); ad != 2 {
		t.Fatalf("AvgDepth %v, want 2: every point lies in the one leaf", ad)
	}
}
