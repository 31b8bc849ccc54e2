package core

import (
	"fmt"
	"math"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/sfc"
	"rsmi/internal/workload"
)

// testOptions returns options scaled for fast unit tests: small blocks and
// partitions, short training. Correctness must not depend on training
// quality, so low epoch counts also exercise the error-bound machinery.
func testOptions() Options {
	return Options{
		BlockCapacity:      20,
		PartitionThreshold: 500,
		LearningRate:       0.1,
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

func TestWindowQueryRecall(t *testing.T) {
	for _, kind := range dataset.All() {
		t.Run(kind.String(), func(t *testing.T) {
			idx, pts := buildTest(t, kind, 4000)
			oracle := index.NewLinear(pts)
			ws := workload.Windows(pts, 100, 0.01, 1, 4)
			var total float64
			for _, w := range ws {
				got := idx.WindowQuery(w)
				want := oracle.WindowQuery(w)
				total += index.Recall(got, want)
			}
			avg := total / float64(len(ws))
			// The paper reports > 87% with full training; the test floor is
			// lower because test training is deliberately brief.
			if avg < 0.70 {
				t.Errorf("average window recall = %.3f, want >= 0.70", avg)
			}
		})
	}
}

func TestExactWindowMatchesOracle(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Skewed, dataset.OSMLike} {
		t.Run(kind.String(), func(t *testing.T) {
			idx, pts := buildTest(t, kind, 3000)
			oracle := index.NewLinear(pts)
			exact := idx.AsExact()
			ws := workload.Windows(pts, 60, 0.02, 2, 5)
			for _, w := range ws {
				got := exact.WindowQuery(w)
				want := oracle.WindowQuery(w)
				if index.Recall(got, want) != 1 || len(got) != len(want) {
					t.Fatalf("exact window mismatch for %v: got %d wanted %d",
						w, len(got), len(want))
				}
			}
		})
	}
}

func TestKNNApproximate(t *testing.T) {
	idx, pts := buildTest(t, dataset.Skewed, 4000)
	oracle := index.NewLinear(pts)
	qs := workload.KNNPoints(pts, 60, 6)
	var total float64
	for _, q := range qs {
		got := idx.KNN(q, 10)
		if len(got) != 10 {
			t.Fatalf("kNN returned %d points, want 10", len(got))
		}
		for i := 1; i < len(got); i++ {
			if q.Dist2(got[i-1]) > q.Dist2(got[i]) {
				t.Fatal("kNN result not sorted by distance")
			}
		}
		total += index.KNNRecall(got, oracle.KNN(q, 10), q)
	}
	if avg := total / float64(len(qs)); avg < 0.75 {
		t.Errorf("average kNN recall = %.3f, want >= 0.75", avg)
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

func TestExactKNNMatchesOracle(t *testing.T) {
	idx, pts := buildTest(t, dataset.OSMLike, 3000)
	oracle := index.NewLinear(pts)
	exact := idx.AsExact()
	for _, q := range workload.KNNPoints(pts, 40, 8) {
		for _, k := range []int{1, 5, 25} {
			got := exact.KNN(q, k)
			want := oracle.KNN(q, k)
			if len(got) != len(want) {
				t.Fatalf("exact kNN size %d, want %d", len(got), len(want))
			}
			for i := range got {
				// Distances must match exactly (ties may reorder points).
				if math.Abs(q.Dist2(got[i])-q.Dist2(want[i])) > 1e-15 {
					t.Fatalf("exact kNN distance mismatch at %d: %v vs %v",
						i, q.Dist2(got[i]), q.Dist2(want[i]))
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	idx, pts := buildTest(t, dataset.Uniform, 800)
	q := geom.Pt(0.5, 0.5)
	if got := idx.KNN(q, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	if got := idx.KNN(q, len(pts)+100); len(got) != len(pts) {
		t.Errorf("k>n returned %d, want %d", len(got), len(pts))
	}
	if got := idx.AsExact().KNN(q, 0); got != nil {
		t.Error("exact k=0 must return nil")
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

func TestErrorBoundsAreExact(t *testing.T) {
	// Every indexed point must lie within the error-bounded range of its
	// leaf prediction; this is what makes Algorithm 1 correct, and it is
	// what Table 4 reports.
	idx, pts := buildTest(t, dataset.Skewed, 3000)
	errLow, errHigh := idx.ErrorBounds()
	if errLow < 0 || errHigh < 0 {
		t.Fatalf("negative error bounds (%d, %d)", errLow, errHigh)
	}
	for _, p := range pts {
		lo, hi, ok := idx.locate(p)
		if !ok {
			t.Fatalf("locate failed for %v", p)
		}
		var reads int
		if blk, _ := refFind(idx, p, lo, hi, &reads); blk == nil {
			t.Fatalf("point %v outside its error-bounded range [%d,%d]", p, lo, hi)
		}
	}
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
	var total float64
	ws := workload.Windows(pts, 50, 0.01, 1, 11)
	for _, w := range ws {
		got := idx.WindowQuery(w)
		for _, p := range got {
			if !w.Contains(p) {
				t.Fatal("Z-curve window false positive")
			}
		}
		total += index.Recall(got, oracle.WindowQuery(w))
	}
	if avg := total / float64(len(ws)); avg < 0.7 {
		t.Errorf("Z-curve recall %.3f too low", avg)
	}
}

func TestPartitionThresholdShapesTree(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 6000, 12)
	small := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 200, Epochs: 20, LearningRate: 0.1, Seed: 1})
	large := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 6000, Epochs: 20, LearningRate: 0.1, Seed: 1})
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

// BenchmarkBuild100k builds one index over 100k skewed points with the
// paper's B and N at the benchmark's training budget: a root model over
// about sixty leaves, the shape one shard of the repo's benchmark has.
func BenchmarkBuild100k(b *testing.B) {
	pts := dataset.Generate(dataset.Skewed, 100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(pts, Options{Epochs: 10, Seed: 1})
	}
}

// benchIndex is the index the query benchmarks share: 100k skewed points
// with the paper's B and N, the shape of one shard of the repo's benchmark.
func benchIndex(b *testing.B) (*RSMI, []geom.Point) {
	b.Helper()
	pts := dataset.Generate(dataset.Skewed, 100_000, 1)
	return New(pts, Options{Epochs: 10, Seed: 1}), pts
}

// BenchmarkKNNByK runs Algorithm 3 over the k range of the paper's Fig. 16.
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

// BenchmarkWindowQuery runs Algorithm 2 on windows of the paper's default
// size, appending into a warm buffer as the shard layer does.
func BenchmarkWindowQuery(b *testing.B) {
	idx, pts := benchIndex(b)
	qs := workload.Windows(pts, 1024, workload.DefaultWindowSize, workload.DefaultAspectRatio, 3)
	var buf []geom.Point
	b.ReportAllocs()
	b.ResetTimer()
	idx.ResetAccesses()
	for i := 0; i < b.N; i++ {
		buf = idx.windowQueryAppend(buf[:0], qs[i%len(qs)])
	}
	b.ReportMetric(float64(idx.Accesses())/float64(b.N), "blocks/op")
}
