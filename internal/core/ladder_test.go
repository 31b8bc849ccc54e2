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
// passes) and block reads — for windows and kNN at k = 25 of Algorithms 2
// and 3 and of the exact MBR walk (exact_), whose passes alternate with
// theirs so that drift of the host falls on both — and window and kNN
// recall, on the built index and again after inserting half as many points
// again. After the inserts it also reports the exact walk's window reads on
// a fresh build over the same points (exact_window_blocks_fresh). Window
// recall is reported at the default size and as the least over the paper's
// five sizes, kNN recall at k = 25 and k = 125. The truth is the index's
// own exact variants, which the tests pin to a linear scan. It uses only
// what the package has exported for years, so the file runs unchanged on
// earlier commits for a before-and-after table. Run it with -benchtime 1x;
// it is skipped under -short.
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
				grown := append(pts, ins...)
				ladderRow(b, idx, grown, "+50%")
				fresh := New(grown, Options{Epochs: 10, Seed: 1})
				ws := workload.Windows(grown, 300, workload.DefaultWindowSize, 1, 4)
				for _, w := range ws {
					fresh.ExactWindow(w)
				}
				b.ReportMetric(float64(fresh.Accesses())/float64(len(ws)), "exact_window_blocks_fresh+50%")
			})
		}
	}
}

// ladderRow reports one row of BenchmarkLadder over the points idx holds,
// each metric's unit suffixed by stage.
func ladderRow(b *testing.B, idx *RSMI, pts []geom.Point, stage string) {
	// measure runs each of fns once per query, in seven passes after a
	// collection, the classes' passes taking turns, and reports for each the
	// mean time per query of its median pass and the mean reads per query.
	type class struct {
		name string
		fn   func(i int)
	}
	measure := func(count int, classes ...class) {
		runtime.GC()
		passes := make([][]time.Duration, len(classes))
		reads := make([]int64, len(classes))
		for range 7 {
			for c, cl := range classes {
				idx.ResetAccesses()
				start := time.Now()
				for i := range count {
					cl.fn(i)
				}
				passes[c] = append(passes[c], time.Since(start))
				reads[c] += idx.Accesses()
			}
		}
		for c, cl := range classes {
			slices.Sort(passes[c])
			b.ReportMetric(float64(passes[c][len(passes[c])/2].Nanoseconds())/float64(count)/1e3, cl.name+"_us"+stage)
			b.ReportMetric(float64(reads[c])/float64(count*len(passes[c])), cl.name+"_blocks"+stage)
		}
	}
	points := workload.PointQueries(pts, 2000, 3)
	measure(len(points), class{"point", func(i int) { idx.PointQuery(points[i]) }})

	least := 1.0
	for _, size := range workload.WindowSizes {
		ws := workload.Windows(pts, 300, size, 1, 4)
		got := make([][]geom.Point, len(ws))
		if size == workload.DefaultWindowSize {
			measure(len(ws), class{"window", func(i int) { got[i] = idx.WindowQuery(ws[i]) }},
				class{"exact_window", func(i int) { idx.ExactWindow(ws[i]) }})
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
			measure(len(qs), class{"knn", func(i int) { got[i] = idx.KNN(qs[i], k) }},
				class{"exact_knn", func(i int) { idx.ExactKNN(qs[i], k) }})
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
