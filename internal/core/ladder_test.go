package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/workload"
)

// BenchmarkLadder measures the index at 200k, 1M and 4M points of uniform,
// skewed and OSM-like data (B and N the paper's, 10 epochs, seed 1): the
// build, then per query class — points, windows of the default size, kNN
// at k = 25 — the mean time (of the median of seven passes) and block
// reads, on the built index and again after inserting half as many points
// again. After the inserts it also reports the window reads of a fresh
// build over the same points (window_blocks_fresh). It uses only what the
// package has exported for years, so the file runs unchanged on earlier
// commits for a before-and-after table. Run it with -benchtime 1x; it is
// skipped under -short.
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
					fresh.WindowQuery(w)
				}
				b.ReportMetric(float64(fresh.Accesses())/float64(len(ws)), "window_blocks_fresh+50%")
			})
		}
	}
}

// ladderRow reports one row of BenchmarkLadder over the points idx holds,
// each metric's unit suffixed by stage.
func ladderRow(b *testing.B, idx *RSMI, pts []geom.Point, stage string) {
	// measure runs fn once per query, in seven passes after a collection,
	// and reports the mean time per query of its median pass and the mean
	// reads per query.
	measure := func(name string, count int, fn func(i int)) {
		runtime.GC()
		var passes []time.Duration
		var reads int64
		for range 7 {
			idx.ResetAccesses()
			start := time.Now()
			for i := range count {
				fn(i)
			}
			passes = append(passes, time.Since(start))
			reads += idx.Accesses()
		}
		slices.Sort(passes)
		b.ReportMetric(float64(passes[len(passes)/2].Nanoseconds())/float64(count)/1e3, name+"_us"+stage)
		b.ReportMetric(float64(reads)/float64(count*len(passes)), name+"_blocks"+stage)
	}
	points := workload.PointQueries(pts, 2000, 3)
	measure("point", len(points), func(i int) { idx.PointQuery(points[i]) })
	ws := workload.Windows(pts, 300, workload.DefaultWindowSize, 1, 4)
	measure("window", len(ws), func(i int) { idx.WindowQuery(ws[i]) })
	qs := workload.KNNPoints(pts, 300, 5)
	measure("knn", len(qs), func(i int) { idx.KNN(qs[i], workload.DefaultK) })
}
