// Sharded: partition an RSMI across shards, each behind its own lock, and
// serve concurrent clients side by side. The program builds the same data
// set behind (a) one index with a global RWMutex (rsmi.Concurrent) and (b)
// an S-way sharded index (rsmi.Sharded), drives both with concurrent
// clients running a mixed read/write workload, and reports throughput —
// then shows that the sharded answers keep the single-index correctness
// guarantees.
package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/workload"
)

// engine is the slice of the ctx-first index API the workload driver
// uses.
type engine interface {
	WindowQueryContext(ctx context.Context, q rsmi.Rect) ([]rsmi.Point, error)
	InsertContext(ctx context.Context, p rsmi.Point) error
}

// drive runs ops operations (90% window queries, 10% inserts) across g
// client goroutines and returns the wall-clock rate in kops/s.
func drive(e engine, g, ops int, windows []rsmi.Rect, inserts []rsmi.Point) float64 {
	ctx := context.Background()
	var next int64 = -1
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= ops {
					return
				}
				if i%10 == 9 {
					e.InsertContext(ctx, inserts[i/10])
				} else {
					e.WindowQueryContext(ctx, windows[i%len(windows)])
				}
			}
		}()
	}
	wg.Wait()
	return float64(ops) / time.Since(start).Seconds() / 1e3
}

func main() {
	const n = 50000
	pts := dataset.Generate(dataset.Skewed, n, 1)
	opts := rsmi.Options{Epochs: 40, LearningRate: 0.1, Seed: 1}

	shards := runtime.GOMAXPROCS(0) * 2
	if shards < 4 {
		shards = 4
	}
	fmt.Printf("building: 1 RSMI behind a RWMutex vs %d space-partitioned shards (n=%d)\n", shards, n)
	conc := rsmi.NewConcurrent(pts, opts)
	sh := rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: shards, Index: opts})
	fmt.Printf("  %v\n", sh)

	// The correctness guarantees compose across shards (ctx-first v2 API;
	// errors are non-nil only on cancellation).
	ctx := context.Background()
	q := pts[1234]
	w := rsmi.RectAround(rsmi.Pt(0.5, 0.1), 0.04, 0.04)
	exact, _ := sh.ExactWindowContext(ctx, w)
	approx, _ := sh.WindowQueryContext(ctx, w)
	cFound, _ := conc.PointQueryContext(ctx, q)
	sFound, _ := sh.PointQueryContext(ctx, q)
	fmt.Printf("point query: concurrent=%v sharded=%v\n", cFound, sFound)
	fmt.Printf("window %v: exact=%d approx=%d (recall %.3f, no false positives)\n",
		w, len(exact), len(approx), float64(len(approx))/float64(max(1, len(exact))))
	knn, _ := sh.KNNContext(ctx, rsmi.Pt(0.5, 0.1), 5)
	fmt.Printf("kNN best-first over shards: %d neighbours, nearest %v\n", len(knn), knn[0])

	// Throughput under concurrent clients. Fresh engines per client count,
	// so earlier rows' inserts cannot grow the index later rows measure.
	const ops = 20000
	windows := workload.Windows(pts, 2000, 0.0001, 1, 7)
	fmt.Printf("\nmixed workload (90%% window / 10%% insert), %d ops, GOMAXPROCS=%d:\n",
		ops, runtime.GOMAXPROCS(0))
	for _, g := range []int{1, 4, 16} {
		c := drive(rsmi.NewConcurrent(pts, opts), g, ops, windows,
			workload.InsertPoints(pts, ops/10, int64(100+g)))
		s := drive(rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: shards, Index: opts}), g, ops, windows,
			workload.InsertPoints(pts, ops/10, int64(200+g)))
		fmt.Printf("  g=%-3d  RWMutex %7.1f kops/s   Sharded %7.1f kops/s   (%.1fx)\n", g, c, s, s/c)
	}
}
