package core

import (
	"slices"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// Paper-fidelity checks at the paper's B and N. The paper reports window
// recall > 87% and kNN recall > 88% for Algorithms 2 and 3 (§6.2.3–§6.2.4);
// the index answers both by RSMIa's MBR walk, so these demand what a linear
// scan answers. They run a larger build than the unit tests, so they are
// skipped under -short.

func paperOptions() Options {
	return Options{
		BlockCapacity:      100,
		PartitionThreshold: 10000,
		Epochs:             80,
		Seed:               1,
	}
}

func TestPaperClaimWindowRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build skipped in -short")
	}
	for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Skewed} {
		t.Run(kind.String(), func(t *testing.T) {
			pts := dataset.Generate(kind, 30000, 11)
			idx := New(pts, paperOptions())
			oracle := index.NewLinear(pts)
			for _, w := range workload.Windows(pts, 300, workload.DefaultWindowSize, 1, 12) {
				got, want := idx.WindowQuery(w), oracle.WindowQuery(w)
				if len(got) != len(want) || index.Recall(got, want) != 1 {
					t.Fatalf("window %v: %d points, a linear scan %d", w, len(got), len(want))
				}
			}
		})
	}
}

func TestPaperClaimKNNRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build skipped in -short")
	}
	pts := dataset.Generate(dataset.Skewed, 30000, 13)
	idx := New(pts, paperOptions())
	oracle := index.NewLinear(pts)
	for _, q := range workload.KNNPoints(pts, 200, 14) {
		if got, want := idx.KNN(q, workload.DefaultK), oracle.KNN(q, workload.DefaultK); !slices.Equal(got, want) {
			t.Fatalf("KNN(%v, %d) = %v, a linear scan %v", q, workload.DefaultK, got, want)
		}
	}
}

// TestRecallAtSmallLeaves: windows and kNN answer exactly what a linear
// scan answers where the approximate path of the paper used to lose rows:
// 50k skewed points over small blocks and leaves (B = 20, N = 500, so two
// levels of 4 × 4 grid cuts over 256 leaves), where a window's corners and
// a kNN round's region often lie in other leaves than the points they must
// find. Every window at the paper's five sizes holds the linear scan's
// points, and every kNN answer at k = 25 and 125 its distances, rank by
// rank.
func TestRecallAtSmallLeaves(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 50_000, 21)
	idx := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 500})
	oracle := index.NewLinear(pts)
	for _, size := range workload.WindowSizes {
		for _, w := range workload.Windows(pts, 300, size, 1, 22) {
			got, want := idx.WindowQuery(w), oracle.WindowQuery(w)
			slices.SortFunc(got, geom.Point.Compare)
			slices.SortFunc(want, geom.Point.Compare)
			if !slices.Equal(got, want) {
				t.Fatalf("window %v at size %v: %d points, a linear scan %d", w, size, len(got), len(want))
			}
		}
	}
	for _, k := range []int{25, 125} {
		for _, q := range workload.KNNPoints(pts, 300, 23) {
			got, want := idx.KNN(q, k), oracle.KNN(q, k)
			if len(got) != len(want) {
				t.Fatalf("kNN at %v, k = %d: %d points, a linear scan %d", q, k, len(got), len(want))
			}
			for i := range got {
				if q.Dist2(got[i]) != q.Dist2(want[i]) {
					t.Fatalf("kNN at %v, k = %d: rank %d at distance² %v, a linear scan's %v",
						q, k, i, q.Dist2(got[i]), q.Dist2(want[i]))
				}
			}
		}
	}
}

// §6.2.2 reports RSMI average depths of 3–4 with N=10000 at millions of
// points; at 30k points the structure must stay shallow (≤ 3).
func TestPaperClaimShallowDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build skipped in -short")
	}
	pts := dataset.Generate(dataset.Skewed, 30000, 15)
	idx := New(pts, paperOptions())
	if ad := idx.AvgDepth(); ad > 3 {
		t.Errorf("average depth = %.2f, want <= 3 at n=30k", ad)
	}
	if s := idx.Stats(); s.Height > 3 {
		t.Errorf("height = %d, want <= 3 at n=30k", s.Height)
	}
}

// Finer partitioning must tighten the error bounds — the core scaling
// argument of §3.2 (partition the data "until each partition allows a
// simple feedforward neural network to learn an accurate function f") and
// the mechanism behind Table 3's block-access column. A single model over
// the whole set cannot bound its error as tightly as models over small
// partitions, however long it trains.
func TestFinerPartitioningTightensBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build skipped in -short")
	}
	pts := dataset.Generate(dataset.Skewed, 8000, 16)
	coarse := Options{BlockCapacity: 100, PartitionThreshold: 10000, Epochs: 60, Seed: 1}
	fine := coarse
	fine.PartitionThreshold = 500
	cIdx, fIdx := New(pts, coarse), New(pts, fine)
	cl, ca := cIdx.ErrorBounds()
	fl, fa := fIdx.ErrorBounds()
	if fl+fa >= cl+ca {
		t.Errorf("bounds did not tighten: coarse (%d,%d) vs fine (%d,%d)", cl, ca, fl, fa)
	}
	// And the tighter bounds translate into fewer block accesses.
	queries := workload.PointQueries(pts, 500, 17)
	cIdx.ResetAccesses()
	for _, q := range queries {
		cIdx.PointQuery(q)
	}
	coarseAcc := cIdx.Accesses()
	fIdx.ResetAccesses()
	for _, q := range queries {
		fIdx.PointQuery(q)
	}
	fineAcc := fIdx.Accesses()
	if fineAcc >= coarseAcc {
		t.Errorf("fine partitioning accesses %d not below coarse %d", fineAcc, coarseAcc)
	}
}
