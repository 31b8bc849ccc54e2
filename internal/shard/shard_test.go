package shard

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// bg is the context of every test call that is not about cancellation.
var bg = context.Background()

// must returns v, panicking on err: a call made with bg fails only on a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// mustInsert inserts p, failing t if the index refuses it.
func mustInsert(t testing.TB, s *Sharded, p geom.Point) {
	t.Helper()
	if err := s.InsertContext(bg, p); err != nil {
		t.Errorf("InsertContext(%v): %v", p, err)
	}
}

// quickOpts keeps shard builds fast at test scale.
func quickOpts(shards int) Options {
	return Options{
		Shards:  shards,
		Workers: shards,
		Index: core.Options{
			BlockCapacity:      50,
			PartitionThreshold: 500,
			Epochs:             10,
			LearningRate:       0.1,
			Seed:               1,
		},
	}
}

// layouts are the shard counts the layout-sensitive tests run under, by
// subtest name: one shard, which is one lock over one RSMI, and four
// space-partitioned shards.
var layouts = []struct {
	name   string
	shards int
}{{"one-shard", 1}, {"space", 4}}

func sortedCopy(pts []geom.Point) []geom.Point {
	out := append([]geom.Point(nil), pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func sameSet(t *testing.T, what string, got, want []geom.Point) {
	t.Helper()
	g, w := sortedCopy(got), sortedCopy(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d points, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: point %d differs: got %v want %v", what, i, g[i], w[i])
		}
	}
}

// checkAgainstLinear asserts the composed guarantees of a Sharded index
// against the brute-force ground truth: exact point queries, window answers
// with no false positives, exact ExactWindow/ExactKNN, and kNN answers that
// are real indexed points in distance order.
func checkAgainstLinear(t *testing.T, s *Sharded, lin *index.Linear, pts []geom.Point, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	if s.Len() != lin.Len() {
		t.Fatalf("Len: sharded %d, linear %d", s.Len(), lin.Len())
	}

	// Point queries: identical to ground truth, hits and misses alike.
	for i := 0; i < 200; i++ {
		p := pts[rng.Intn(len(pts))]
		if got, want := must(s.PointQueryContext(bg, p)), lin.PointQuery(p); got != want {
			t.Fatalf("PointQuery(%v) = %v, linear says %v", p, got, want)
		}
		miss := geom.Pt(rng.Float64(), rng.Float64())
		if got, want := must(s.PointQueryContext(bg, miss)), lin.PointQuery(miss); got != want {
			t.Fatalf("PointQuery miss %v = %v, linear says %v", miss, got, want)
		}
	}

	// Window queries: no false positives, and the exact variant matches the
	// ground truth set exactly.
	for _, w := range workload.Windows(pts, 25, 0.01, 1, seed+1) {
		truth := lin.WindowQuery(w)
		inTruth := make(map[geom.Point]bool, len(truth))
		for _, p := range truth {
			inTruth[p] = true
		}
		for _, p := range must(s.WindowQueryContext(bg, w)) {
			if !w.Contains(p) {
				t.Fatalf("WindowQuery(%v) returned %v outside the window", w, p)
			}
			if !inTruth[p] {
				t.Fatalf("WindowQuery(%v) returned %v not in ground truth", w, p)
			}
		}
		sameSet(t, "ExactWindow", must(s.ExactWindowContext(bg, w)), truth)
	}

	// kNN: approximate answers are real points in distance order; exact
	// answers match the ground-truth distances (ties may reorder points).
	for _, q := range workload.KNNPoints(pts, 25, seed+2) {
		for _, k := range []int{1, 5, 25} {
			truth := lin.KNN(q, k)
			got := must(s.KNNContext(bg, q, k))
			if len(got) > k {
				t.Fatalf("KNN(%v, %d) returned %d points", q, k, len(got))
			}
			for i, p := range got {
				if !lin.PointQuery(p) {
					t.Fatalf("KNN returned non-indexed point %v", p)
				}
				if i > 0 && q.Dist2(got[i-1]) > q.Dist2(p) {
					t.Fatalf("KNN results not sorted by distance at %d", i)
				}
			}
			exact := must(s.ExactKNNContext(bg, q, k))
			if len(exact) != len(truth) {
				t.Fatalf("ExactKNN(%v, %d) returned %d points, want %d", q, k, len(exact), len(truth))
			}
			for i := range exact {
				if q.Dist2(exact[i]) != q.Dist2(truth[i]) {
					t.Fatalf("ExactKNN distance %d: got %v want %v", i, q.Dist2(exact[i]), q.Dist2(truth[i]))
				}
			}
		}
	}
}

func TestShardedMatchesLinear(t *testing.T) {
	for _, l := range layouts {
		for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Skewed} {
			t.Run(l.name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				pts := dataset.Generate(kind, 3000, 7)
				s := New(pts, quickOpts(l.shards))
				if s.NumShards() != l.shards {
					t.Fatalf("NumShards = %d", s.NumShards())
				}
				lin := index.NewLinear(pts)
				checkAgainstLinear(t, s, lin, pts, 11)
			})
		}
	}
}

func TestShardedUpdates(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			pts := dataset.Generate(dataset.Skewed, 2500, 9)
			s := New(pts, quickOpts(l.shards))
			lin := index.NewLinear(pts)

			ins := workload.InsertPoints(pts, 800, 10)
			for _, p := range ins {
				mustInsert(t, s, p)
				lin.Insert(p)
			}
			dels := workload.DeleteSample(pts, 400, 12)
			for _, p := range dels {
				if !must(s.DeleteContext(bg, p)) {
					t.Fatalf("Delete(%v) failed on indexed point", p)
				}
				lin.Delete(p)
			}
			if must(s.DeleteContext(bg, geom.Pt(-1, -1))) {
				t.Fatal("Delete of absent point succeeded")
			}
			live := lin.WindowQuery(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
			checkAgainstLinear(t, s, lin, live, 13)

			// The rolling rebuild retrains each shard from its own points
			// (no repartitioning) and must preserve the point set.
			if err := s.RebuildContext(bg); err != nil {
				t.Fatal(err)
			}
			checkAgainstLinear(t, s, lin, live, 14)
		})
	}
}

// TestShardedParallelMixed exercises queries and updates on different
// shards concurrently; run under -race this is the data-race test the
// per-shard locking must pass.
func TestShardedParallelMixed(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 2500, 15)
	s := New(pts, quickOpts(4))
	ins := workload.InsertPoints(pts, 1200, 16)
	ws := workload.Windows(pts, 50, 0.01, 1, 17)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	// Two writers inserting disjoint halves.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ins); i += 2 {
				mustInsert(t, s, ins[i])
				if i%5 == 0 {
					must(s.DeleteContext(bg, pts[i%len(pts)]))
				}
			}
		}(w)
	}
	// Four readers running the full query surface.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				q := ws[(g+i)%len(ws)]
				for _, p := range must(s.WindowQueryContext(bg, q)) {
					if !q.Contains(p) {
						errs <- "window false positive under concurrency"
						return
					}
				}
				must(s.PointQueryContext(bg, pts[(g*131+i)%len(pts)]))
				must(s.KNNContext(bg, pts[(g*17+i)%len(pts)], 5))
				if i%60 == 0 {
					must(s.ExactWindowContext(bg, q))
					s.Len()
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// No insert may be lost.
	for _, p := range ins {
		if !must(s.PointQueryContext(bg, p)) {
			t.Fatalf("inserted point %v lost under concurrent load", p)
		}
	}
}

func TestShardedDefaults(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 600, 18)
	s := New(pts, Options{Index: core.Options{Epochs: 5, LearningRate: 0.1, Seed: 1, BlockCapacity: 50, PartitionThreshold: 500}})
	if s.NumShards() < 1 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if s.Options().Workers < 1 {
		t.Fatalf("Workers = %d", s.Options().Workers)
	}
	if s.Name() != "Sharded" {
		t.Fatalf("Name = %q", s.Name())
	}
	if st := s.Stats(); st.Blocks == 0 || st.SizeBytes == 0 {
		t.Fatalf("empty aggregate stats: %+v", st)
	}
	if got := len(s.ShardStats()); got != s.NumShards() {
		t.Fatalf("ShardStats returned %d entries", got)
	}
	// No point lies deeper than Height, so neither does the average (core's
	// TestCutsDescendExactly checks a leaf built for a cell that took every
	// point).
	rebuilt := rebuiltHistory(t)
	for i, st := range rebuilt.ShardStats() {
		if ad := rebuilt.shards[i].idx.AvgDepth(); ad > float64(st.Height) {
			t.Errorf("rebuilt shard %d: AvgDepth %v above Height %d", i, ad, st.Height)
		}
	}
}

// More shards than points: some shards are empty, and everything must still
// work, including inserts routed to initially-empty structures.
func TestShardedMoreShardsThanPoints(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 3, 19)
	s := New(pts, quickOpts(8))
	for _, p := range pts {
		if !must(s.PointQueryContext(bg, p)) {
			t.Fatalf("point %v missing", p)
		}
	}
	p := geom.Pt(0.123, 0.456)
	mustInsert(t, s, p)
	if !must(s.PointQueryContext(bg, p)) {
		t.Fatal("insert into sparse sharded index lost")
	}
	if got := must(s.ExactKNNContext(bg, geom.Pt(0.5, 0.5), 10)); len(got) != 4 {
		t.Fatalf("ExactKNN over sparse shards returned %d points, want 4", len(got))
	}
}

func TestEmptySharded(t *testing.T) {
	s := New(nil, quickOpts(4))
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if must(s.PointQueryContext(bg, geom.Pt(0.5, 0.5))) {
		t.Fatal("point query on empty index")
	}
	if got := must(s.KNNContext(bg, geom.Pt(0.5, 0.5), 3)); len(got) != 0 {
		t.Fatalf("KNN on empty index returned %d", len(got))
	}
	if got := must(s.WindowQueryContext(bg, geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})); len(got) != 0 {
		t.Fatalf("WindowQuery on empty index returned %d", len(got))
	}
	mustInsert(t, s, geom.Pt(0.1, 0.1))
	if !must(s.PointQueryContext(bg, geom.Pt(0.1, 0.1))) {
		t.Fatal("insert into empty sharded index lost")
	}
}

var newSink *Sharded

// BenchmarkNew200k is the set-up the repo's embed-read benchmark times,
// less data generation: 200k skewed points, two shards, 10 epochs. The
// partition runs before either shard can start training.
func BenchmarkNew200k(b *testing.B) {
	pts := dataset.Generate(dataset.Skewed, 200_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newSink = New(pts, Options{Shards: 2, Index: core.Options{Epochs: 10, Seed: 1}})
	}
}
