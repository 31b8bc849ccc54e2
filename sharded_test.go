package rsmi_test

import (
	"context"
	"sync"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

func buildSharded(t testing.TB, shards int) (*rsmi.Sharded, []rsmi.Point) {
	t.Helper()
	pts := dataset.Generate(dataset.Skewed, 4000, 21)
	s := rsmi.NewSharded(pts, rsmi.ShardOptions{
		Shards: shards,
		Index: rsmi.Options{
			BlockCapacity:      50,
			PartitionThreshold: 1000,
			Epochs:             15,
			Seed:               1,
		},
	})
	return s, pts
}

// TestShardedAgainstGroundTruth is the public-API property test: on a
// seeded data set the sharded index must return identical point-query
// results and window/kNN results consistent with the single-index RSMI
// guarantees, judged against the brute-force oracle.
func TestShardedAgainstGroundTruth(t *testing.T) {
	ctx := context.Background()
	// One shard is one lock over one RSMI; four are space-partitioned.
	for _, c := range []struct {
		name   string
		shards int
	}{{"one-shard", 1}, {"space", 4}} {
		t.Run(c.name, func(t *testing.T) {
			s, pts := buildSharded(t, c.shards)
			lin := index.NewLinear(pts)

			for _, p := range workload.PointQueries(pts, 300, 31) {
				if !must(s.PointQueryContext(ctx, p)) {
					t.Fatalf("false negative for indexed point %v", p)
				}
			}
			for _, w := range workload.Windows(pts, 40, 0.01, 1, 32) {
				truth := lin.WindowQuery(w)
				set := make(map[rsmi.Point]bool, len(truth))
				for _, p := range truth {
					set[p] = true
				}
				for _, p := range must(s.WindowQueryContext(ctx, w)) {
					if !set[p] {
						t.Fatalf("window %v returned %v not in ground truth", w, p)
					}
				}
				if got := must(s.ExactWindowContext(ctx, w)); len(got) != len(truth) {
					t.Fatalf("ExactWindow(%v) = %d points, ground truth %d", w, len(got), len(truth))
				}
			}
			for _, q := range workload.KNNPoints(pts, 40, 33) {
				truth := lin.KNN(q, 10)
				got := must(s.ExactKNNContext(ctx, q, 10))
				if len(got) != len(truth) {
					t.Fatalf("ExactKNN returned %d points, want %d", len(got), len(truth))
				}
				for i := range got {
					if q.Dist2(got[i]) != q.Dist2(truth[i]) {
						t.Fatalf("ExactKNN distance %d mismatch", i)
					}
				}
				if r := index.KNNRecall(must(s.KNNContext(ctx, q, 10)), truth, q); r < 0.5 {
					t.Fatalf("approximate kNN recall %.2f implausibly low", r)
				}
			}
		})
	}
}

// TestShardedMixedReadWrite drives a parallel mixed query/update workload
// through the public API; under -race it is the concurrency-safety test for
// the per-shard locking.
func TestShardedMixedReadWrite(t *testing.T) {
	ctx := context.Background()
	s, pts := buildSharded(t, 4)
	ins := workload.InsertPoints(pts, 2000, 24)
	var wg sync.WaitGroup
	// Two writers on disjoint halves; deletes mixed in.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ins); i += 2 {
				mustInsert(t, s, ins[i])
				if i%4 == 0 {
					must(s.DeleteContext(ctx, pts[i]))
				}
			}
		}(w)
	}
	// Readers across the whole query surface.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				must(s.PointQueryContext(ctx, pts[(g*31+i)%len(pts)]))
				if i%20 == 0 {
					w := rsmi.RectAround(pts[(g*7+i)%len(pts)], 0.05, 0.05)
					must(s.WindowQueryContext(ctx, w))
					must(s.KNNContext(ctx, pts[(g*13+i)%len(pts)], 5))
				}
				if i%100 == 0 {
					s.Len()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, p := range ins {
		if !must(s.PointQueryContext(ctx, p)) {
			t.Fatalf("inserted point %v lost under concurrent load", p)
		}
	}
}

func TestShardedRebuildPublic(t *testing.T) {
	ctx := context.Background()
	s, pts := buildSharded(t, 4)
	for _, p := range workload.InsertPoints(pts, 500, 25) {
		mustInsert(t, s, p)
	}
	before := s.Len()
	if err := s.RebuildContext(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Len() != before {
		t.Fatalf("rebuild changed Len: %d -> %d", before, s.Len())
	}
	if !must(s.PointQueryContext(ctx, pts[0])) {
		t.Fatal("point lost after rebuild")
	}
	if st := s.Stats(); st.Name != "Sharded" || st.Blocks == 0 {
		t.Errorf("Stats = %+v", st)
	}
}
