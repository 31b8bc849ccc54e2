package core

import (
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// Paper-fidelity checks: with adequate training, the index must approach the
// accuracy the paper reports (window recall > 87%, kNN recall > 88%,
// §6.2.3–§6.2.4). These run a larger build than the unit tests, so they are
// skipped under -short.

func paperOptions() Options {
	return Options{
		BlockCapacity:      100,
		PartitionThreshold: 10000,
		LearningRate:       0.1,
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
			ws := workload.Windows(pts, 300, workload.DefaultWindowSize, 1, 12)
			var recall float64
			for _, w := range ws {
				recall += index.Recall(idx.WindowQuery(w), oracle.WindowQuery(w))
			}
			avg := recall / float64(len(ws))
			if avg < 0.87 {
				t.Errorf("window recall = %.3f, paper reports > 0.87", avg)
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
	qs := workload.KNNPoints(pts, 200, 14)
	var recall float64
	for _, q := range qs {
		recall += index.KNNRecall(idx.KNN(q, workload.DefaultK), oracle.KNN(q, workload.DefaultK), q)
	}
	avg := recall / float64(len(qs))
	if avg < 0.88 {
		t.Errorf("kNN recall = %.3f, paper reports > 0.88", avg)
	}
}

// TestRecallAtSmallLeaves holds recall at 1 where the approximate path
// used to lose rows: 50k skewed points over small blocks and leaves (B = 20,
// N = 500, so two levels of 4 × 4 grid cuts over 256 leaves) with 10 epochs
// of training, where a window's corners and a kNN round's region often lie
// in other leaves than the points they must find. Windows at the paper's
// five sizes and kNN at k = 25 and 125 must each recall at least 0.999 of
// a linear scan's answer.
func TestRecallAtSmallLeaves(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 50_000, 21)
	idx := New(pts, Options{BlockCapacity: 20, PartitionThreshold: 500, Epochs: 10, Seed: 1})
	oracle := index.NewLinear(pts)
	for _, size := range workload.WindowSizes {
		ws := workload.Windows(pts, 300, size, 1, 22)
		var recall float64
		for _, w := range ws {
			recall += index.Recall(idx.WindowQuery(w), oracle.WindowQuery(w))
		}
		if avg := recall / float64(len(ws)); avg < 0.999 {
			t.Errorf("window recall at size %v = %.4f, want >= 0.999", size, avg)
		}
	}
	qs := workload.KNNPoints(pts, 300, 23)
	for _, k := range []int{25, 125} {
		var recall float64
		for _, q := range qs {
			recall += index.KNNRecall(idx.KNN(q, k), oracle.KNN(q, k), q)
		}
		if avg := recall / float64(len(qs)); avg < 0.999 {
			t.Errorf("kNN recall at k = %d = %.4f, want >= 0.999", k, avg)
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
	coarse := Options{BlockCapacity: 100, PartitionThreshold: 10000, LearningRate: 0.1, Epochs: 60, Seed: 1}
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
