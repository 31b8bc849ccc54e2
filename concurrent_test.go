package rsmi_test

import (
	"context"
	"sync"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/workload"
)

// buildConcurrent builds an R*-tree engine: a single-goroutine baseline
// behind the RWMutex every baseline engine shares, which these tests race.
func buildConcurrent(t testing.TB) (rsmi.Engine, []rsmi.Point) {
	t.Helper()
	pts := dataset.Generate(dataset.Skewed, 4000, 21)
	return baseline(t, "rstar", pts), pts
}

func TestConcurrentParallelQueries(t *testing.T) {
	ctx := context.Background()
	c, pts := buildConcurrent(t)
	qs := workload.KNNPoints(pts, 200, 22)
	ws := workload.Windows(pts, 200, 0.01, 1, 23)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !must(c.PointQueryContext(ctx, pts[(g*997+i)%len(pts)])) {
					errs <- "point query false negative under concurrency"
					return
				}
				w := ws[(g+i)%len(ws)]
				for _, p := range must(c.WindowQueryContext(ctx, w)) {
					if !w.Contains(p) {
						errs <- "window false positive under concurrency"
						return
					}
				}
				if got := must(c.KNNContext(ctx, qs[(g+i)%len(qs)], 5)); len(got) != 5 {
					errs <- "kNN wrong cardinality under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestConcurrentMixedReadWrite(t *testing.T) {
	ctx := context.Background()
	c, pts := buildConcurrent(t)
	ins := workload.InsertPoints(pts, 2000, 24)
	var wg sync.WaitGroup
	// Writer goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, p := range ins {
			mustInsert(t, c, p)
			if i%3 == 0 {
				must(c.DeleteContext(ctx, pts[i]))
			}
		}
	}()
	// Reader goroutines.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				must(c.PointQueryContext(ctx, pts[(g*31+i)%len(pts)]))
				c.Len()
				if i%50 == 0 {
					must(c.ExactWindowContext(ctx, rsmi.RectAround(rsmi.Pt(0.5, 0.2), 0.1, 0.1)))
				}
			}
		}(g)
	}
	wg.Wait()
	// Every inserted point must now be present.
	for _, p := range ins {
		if !must(c.PointQueryContext(ctx, p)) {
			t.Fatalf("inserted point %v lost under concurrent load", p)
		}
	}
}

func TestConcurrentRebuild(t *testing.T) {
	ctx := context.Background()
	c, pts := buildConcurrent(t)
	for _, p := range workload.InsertPoints(pts, 500, 25) {
		mustInsert(t, c, p)
	}
	before := c.Len()
	if err := c.RebuildContext(ctx); err != nil {
		t.Fatal(err)
	}
	if c.Len() != before {
		t.Fatalf("rebuild changed Len: %d -> %d", before, c.Len())
	}
	if !must(c.PointQueryContext(ctx, pts[0])) {
		t.Fatal("point lost after rebuild")
	}
	if s := c.Stats(); s.Name != "RR*" {
		t.Errorf("Stats.Name = %q", s.Name)
	}
}
