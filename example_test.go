package rsmi_test

import (
	"context"
	"fmt"
	"sync"

	"rsmi"
)

// gridPoints returns a deterministic 40×25 lattice in the unit square, small
// enough that the examples build in well under a second.
func gridPoints() []rsmi.Point {
	var pts []rsmi.Point
	for i := 0; i < 40; i++ {
		for j := 0; j < 25; j++ {
			pts = append(pts, rsmi.Pt(float64(i)/40, float64(j)/25))
		}
	}
	return pts
}

// exampleOptions trains quickly; the zero value rsmi.Options{} selects the
// paper's full 500-epoch training instead.
func exampleOptions() rsmi.Options {
	return rsmi.Options{Epochs: 20, Seed: 1}
}

func ExampleNew() {
	idx := rsmi.New(gridPoints(), exampleOptions())

	// Point queries are exact: no false negatives, no false positives.
	fmt.Println(idx.Len(), idx.PointQuery(rsmi.Pt(0.5, 0.2)), idx.PointQuery(rsmi.Pt(0.5001, 0.2)))
	// Output: 1000 true false
}

func ExampleIndex_WindowQuery() {
	idx := rsmi.New(gridPoints(), exampleOptions())
	w := rsmi.NewRect(rsmi.Pt(0.2, 0.2), rsmi.Pt(0.4, 0.4))

	// WindowQuery is exact: it walks the MBRs of the index's nodes and
	// blocks, as the paper's RSMIa variant does.
	fmt.Println(len(idx.WindowQuery(w)))
	// Output: 54
}

func ExampleNewSharded_oneShard() {
	// One shard is one RWMutex over one RSMI: the plain way to share an
	// index between goroutines.
	c := rsmi.NewSharded(gridPoints(), rsmi.ShardOptions{Shards: 1, Index: exampleOptions()})
	// A Sharded answers on the Engine surface: every call takes a context,
	// and its error is non-nil only once that context is done.
	ctx := context.Background()

	// Queries take a shared lock and run in parallel; updates are exclusive.
	var wg sync.WaitGroup
	var found int64
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hits := 0
			for i := 0; i < 250; i++ {
				if ok, _ := c.PointQueryContext(ctx, rsmi.Pt(float64((g*250+i)/25)/40, float64(i%25)/25)); ok {
					hits++
				}
			}
			mu.Lock()
			found += int64(hits)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if err := c.InsertContext(ctx, rsmi.Pt(0.5001, 0.2001)); err != nil {
		fmt.Println(err)
	}
	fmt.Println(found, c.Len())
	// Output: 1000 1001
}

func ExampleSharded() {
	// Partition the data across 4 RSMI shards; queries fan out in parallel
	// and updates lock only the owning shard.
	s := rsmi.NewSharded(gridPoints(), rsmi.ShardOptions{
		Shards: 4,
		Index:  exampleOptions(),
	})

	// A cancelled ctx stops a fan-out between shard visits; Background
	// never does, so these calls cannot fail.
	ctx := context.Background()
	w := rsmi.NewRect(rsmi.Pt(0.2, 0.2), rsmi.Pt(0.4, 0.4))
	nn, _ := s.ExactKNNContext(ctx, rsmi.Pt(0.5, 0.2), 3)
	found, _ := s.PointQueryContext(ctx, rsmi.Pt(0.5, 0.2))
	exact, _ := s.ExactWindowContext(ctx, w)
	fmt.Println(s.NumShards(), s.Len(), found, len(exact), len(nn))
	// Output: 4 1000 true 54 3
}
