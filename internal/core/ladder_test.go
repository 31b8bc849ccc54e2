package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// BenchmarkLadder measures the index at 200k, 1M and 4M points of uniform,
// skewed and OSM-like data (B and N the paper's, 10 epochs, seed 1): the
// build, then per query class the mean time (of the median of seven
// passes) and block reads, and window and kNN recall, on the built index
// and again after inserting half as many points again. Window recall is reported at the default size and as the
// least over the paper's five sizes, kNN recall at k = 25 and k = 125. The
// truth is the index's own exact variants, which the tests pin to a linear
// scan. It uses only what the package has exported for years, so the file
// runs unchanged on earlier commits for a before-and-after table. Run it
// with -benchtime 1x; it is skipped under -short.
func BenchmarkLadder(b *testing.B) {
	if testing.Short() {
		b.Skip("scale ladder skipped in -short")
	}
	for _, n := range []int{200_000, 1_000_000, 4_000_000} {
		for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Skewed, dataset.OSMLike} {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				pts := dataset.Generate(kind, n, 1)
				start := time.Now()
				idx := New(pts, Options{Epochs: 10, Seed: 1})
				b.ReportMetric(time.Since(start).Seconds(), "build_s")
				ladderRow(b, idx, pts, "")
				ins := workload.InsertPoints(pts, n/2, 2)
				for _, p := range ins {
					idx.Insert(p)
				}
				ladderRow(b, idx, append(pts, ins...), "+50%")
			})
		}
	}
}

// ladderRow reports one row of BenchmarkLadder over the points idx holds,
// each metric's unit suffixed by stage.
func ladderRow(b *testing.B, idx *RSMI, pts []geom.Point, stage string) {
	// measure runs fn once per query, in seven passes after a collection,
	// and reports the mean time per query of the median pass and the mean
	// reads per query.
	measure := func(name string, count int, fn func(i int)) {
		runtime.GC()
		idx.ResetAccesses()
		passes := make([]time.Duration, 7)
		for p := range passes {
			start := time.Now()
			for i := range count {
				fn(i)
			}
			passes[p] = time.Since(start)
		}
		slices.Sort(passes)
		b.ReportMetric(float64(passes[len(passes)/2].Nanoseconds())/float64(count)/1e3, name+"_us"+stage)
		b.ReportMetric(float64(idx.Accesses())/float64(count*len(passes)), name+"_blocks"+stage)
	}
	points := workload.PointQueries(pts, 2000, 3)
	measure("point", len(points), func(i int) { idx.PointQuery(points[i]) })

	least := 1.0
	for _, size := range workload.WindowSizes {
		ws := workload.Windows(pts, 300, size, 1, 4)
		got := make([][]geom.Point, len(ws))
		if size == workload.DefaultWindowSize {
			measure("window", len(ws), func(i int) { got[i] = idx.WindowQuery(ws[i]) })
		} else {
			for i, w := range ws {
				got[i] = idx.WindowQuery(w)
			}
		}
		var recall float64
		for i, w := range ws {
			recall += index.Recall(got[i], idx.ExactWindow(w))
		}
		recall /= float64(len(ws))
		least = min(least, recall)
		if size == workload.DefaultWindowSize {
			b.ReportMetric(recall, "window_recall"+stage)
		}
	}
	b.ReportMetric(least, "window_recall5"+stage)

	for _, k := range []int{25, 125} {
		qs := workload.KNNPoints(pts, 300, 5)
		got := make([][]geom.Point, len(qs))
		if k == workload.DefaultK {
			measure("knn", len(qs), func(i int) { got[i] = idx.KNN(qs[i], k) })
		} else {
			for i, q := range qs {
				got[i] = idx.KNN(q, k)
			}
		}
		var recall float64
		for i, q := range qs {
			recall += index.KNNRecall(got[i], idx.ExactKNN(q, k), q)
		}
		b.ReportMetric(recall/float64(len(qs)), fmt.Sprintf("knn%d_recall%s", k, stage))
	}
}
