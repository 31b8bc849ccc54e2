// Sharded: partition an RSMI across shards, each behind its own lock, and
// serve concurrent clients side by side. The program builds the same data
// set as (a) rsmi.Sharded with Shards: 1 — one RWMutex over one index — and
// (b) an S-way sharded index, drives both with concurrent clients running a
// mixed read/write workload, and reports throughput — then shows that the
// sharded answers keep the single-index correctness guarantees.
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

// drive runs ops operations (90% window queries, 10% inserts) across g
// client goroutines and returns the wall-clock rate in kops/s.
func drive(e *rsmi.Sharded, g, ops int, windows []rsmi.Rect, inserts []rsmi.Point) float64 {
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

	shards := runtime.GOMAXPROCS(0) * 2
	if shards < 4 {
		shards = 4
	}
	build := func(s int) *rsmi.Sharded {
		return rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: s})
	}
	fmt.Printf("building: 1 shard (one RWMutex over one RSMI) vs %d space-partitioned shards (n=%d)\n", shards, n)
	one := build(1)
	sh := build(shards)
	fmt.Printf("  %v\n  %v\n", one, sh)

	// The correctness guarantees compose across shards (ctx-first v2 API;
	// errors are non-nil only on cancellation).
	ctx := context.Background()
	q := pts[1234]
	w := rsmi.RectAround(rsmi.Pt(0.5, 0.1), 0.04, 0.04)
	win, _ := sh.WindowQueryContext(ctx, w)
	oneWin, _ := one.WindowQueryContext(ctx, w)
	oFound, _ := one.PointQueryContext(ctx, q)
	sFound, _ := sh.PointQueryContext(ctx, q)
	fmt.Printf("point query: 1 shard=%v %d shards=%v\n", oFound, shards, sFound)
	fmt.Printf("window %v: 1 shard=%d %d shards=%d points (both exact: the MBR walk)\n",
		w, len(oneWin), shards, len(win))
	knn, _ := sh.KNNContext(ctx, rsmi.Pt(0.5, 0.1), 5)
	fmt.Printf("kNN best-first over shards: %d neighbours, nearest %v\n", len(knn), knn[0])

	// Throughput under concurrent clients. Fresh engines per client count,
	// so earlier rows' inserts cannot grow the index later rows measure.
	const ops = 20000
	windows := workload.Windows(pts, 2000, 0.0001, 1, 7)
	fmt.Printf("\nmixed workload (90%% window / 10%% insert), %d ops, GOMAXPROCS=%d:\n",
		ops, runtime.GOMAXPROCS(0))
	for _, g := range []int{1, 4, 16} {
		o := drive(build(1), g, ops, windows, workload.InsertPoints(pts, ops/10, int64(100+g)))
		s := drive(build(shards), g, ops, windows, workload.InsertPoints(pts, ops/10, int64(200+g)))
		fmt.Printf("  g=%-3d  1 shard %7.1f kops/s   %d shards %7.1f kops/s   (%.1fx)\n", g, o, shards, s, s/o)
	}
}
