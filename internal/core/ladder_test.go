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
// skewed and OSM-like data (B and N the paper's): the build, then per query
// class — points, windows of the default size, kNN at k = 25 — the mean time
// (of the median of seven passes, with the q1 and q3 passes beside it) and
// block reads, on the built index and again after inserting half as many
// points again. After the inserts it also reports the window reads of a fresh
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
				idx := New(pts, Options{})
				b.ReportMetric(time.Since(start).Seconds(), "build_s")
				ladderRow(b, idx, pts, "")
				ins := workload.InsertPoints(pts, n/2, 2)
				for _, p := range ins {
					idx.Insert(p)
				}
				grown := append(pts, ins...)
				ladderRow(b, idx, grown, "+50%")
				fresh := New(grown, Options{})
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
// each metric's unit suffixed by stage. It runs seven rounds, each a
// collection and then one pass of every class — points, windows, kNN — so
// that drift of the host falls on the three classes alike, and reports per
// class the mean time per query of its median pass, of its second- and
// sixth-fastest pass (q1 and q3 by nearest rank), and the mean reads per
// query.
func ladderRow(b *testing.B, idx *RSMI, pts []geom.Point, stage string) {
	type class struct {
		name   string
		count  int
		fn     func(i int)
		passes []time.Duration
		reads  int64
	}
	points := workload.PointQueries(pts, 2000, 3)
	ws := workload.Windows(pts, 300, workload.DefaultWindowSize, 1, 4)
	qs := workload.KNNPoints(pts, 300, 5)
	classes := []*class{
		{name: "point", count: len(points), fn: func(i int) { idx.PointQuery(points[i]) }},
		{name: "window", count: len(ws), fn: func(i int) { idx.WindowQuery(ws[i]) }},
		{name: "knn", count: len(qs), fn: func(i int) { idx.KNN(qs[i], workload.DefaultK) }},
	}
	for range 7 {
		runtime.GC()
		for _, c := range classes {
			idx.ResetAccesses()
			start := time.Now()
			for i := range c.count {
				c.fn(i)
			}
			c.passes = append(c.passes, time.Since(start))
			c.reads += idx.Accesses()
		}
	}
	for _, c := range classes {
		slices.Sort(c.passes)
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(c.count) / 1e3 }
		b.ReportMetric(us(c.passes[1]), c.name+"_us_q1"+stage)
		b.ReportMetric(us(c.passes[3]), c.name+"_us"+stage)
		b.ReportMetric(us(c.passes[5]), c.name+"_us_q3"+stage)
		b.ReportMetric(float64(c.reads)/float64(c.count*len(c.passes)), c.name+"_blocks"+stage)
	}
}
