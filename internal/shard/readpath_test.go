package shard

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/obs"
	"rsmi/internal/workload"
)

// TestBatchKNNMatchesPerQuery: a kNN batch answers every element exactly as
// KNNContext does — same points, same order — under both partitionings and
// through inserts, deletes, a rolling rebuild and a snapshot reload.
func TestBatchKNNMatchesPerQuery(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(61))
			pts := dataset.Generate(dataset.Skewed, 3000, 59)
			s := New(pts, quickOpts(l.shards))
			lin := index.NewLinear(pts)
			check := func(stage string) {
				t.Helper()
				var qs []KNNQuery
				for i, q := range workload.KNNPoints(pts, 40, 67) {
					qs = append(qs, KNNQuery{Q: q, K: []int{1, 5, 25, 0, 400}[i%5]})
				}
				for i := 0; i < 10; i++ { // far outside every region
					qs = append(qs, KNNQuery{Q: geom.Pt(2+rng.Float64(), -1-rng.Float64()), K: 7})
				}
				got, err := s.BatchKNNContext(ctx, qs)
				if err != nil || len(got) != len(qs) {
					t.Fatalf("%s: BatchKNNContext: %d answers for %d queries, %v", stage, len(got), len(qs), err)
				}
				for i, q := range qs {
					want, err := s.KNNContext(ctx, q.Q, q.K)
					if err != nil || len(got[i]) != len(want) {
						t.Fatalf("%s: query %d: batch %d points, KNNContext %d, %v", stage, i, len(got[i]), len(want), err)
					}
					for j, p := range want {
						if got[i][j] != p {
							t.Fatalf("%s: query %d rank %d: batch %v, KNNContext %v", stage, i, j, got[i][j], p)
						}
						if !lin.PointQuery(p) {
							t.Fatalf("%s: query %d returned unindexed %v", stage, i, p)
						}
					}
					// The exact variant through the same walk equals the oracle.
					exact, _ := s.ExactKNNContext(ctx, q.Q, q.K)
					truth := lin.KNN(q.Q, q.K)
					if len(exact) != len(truth) {
						t.Fatalf("%s: query %d: ExactKNN %d points, oracle %d", stage, i, len(exact), len(truth))
					}
					for j := range truth {
						if exact[j] != truth[j] {
							t.Fatalf("%s: query %d rank %d: ExactKNN %v, oracle %v", stage, i, j, exact[j], truth[j])
						}
					}
				}
			}
			check("built")
			for i := 0; i < 600; i++ {
				p := geom.Pt(rng.Float64(), rng.Float64())
				mustInsert(t, s, p)
				lin.Insert(p)
			}
			for _, p := range pts[:500] {
				if !must(s.DeleteContext(bg, p)) || !lin.Delete(p) {
					t.Fatalf("delete of %v refused", p)
				}
			}
			check("updated")
			if err := s.RebuildContext(bg); err != nil {
				t.Fatal(err)
			}
			check("rebuilt")
			var snap bytes.Buffer
			if _, err := s.WriteTo(&snap); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&snap)
			if err != nil {
				t.Fatal(err)
			}
			s = loaded
			check("reloaded")
		})
	}
}

// TestKNNSearchesOnlyShardsItNeeds: a kNN query deep inside one shard's
// region — alone or as a batch of one — searches that shard and no other,
// and says so in its trace.
func TestKNNSearchesOnlyShardsItNeeds(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 4000, 71)
	s := New(pts, quickOpts(4))
	// The centre of shard 2's region: its 3 nearest neighbours are far nearer
	// than any other shard's region.
	q := s.shards[2].loadRegion().Center()
	for i, sh := range s.shards {
		if i != 2 && sh.loadRegion().Contains(q) {
			t.Skipf("shard %d's region overlaps the probe; layout changed", i)
		}
	}
	for name, run := range map[string]func(ctx context.Context) ([]geom.Point, error){
		"KNNContext": func(ctx context.Context) ([]geom.Point, error) { return s.KNNContext(ctx, q, 3) },
		"BatchKNNContext": func(ctx context.Context) ([]geom.Point, error) {
			out, err := s.BatchKNNContext(ctx, []KNNQuery{{Q: q, K: 3}})
			if err != nil {
				return nil, err
			}
			return out[0], nil
		},
	} {
		tr := obs.StartTrace("knn", "test")
		s.ResetAccesses()
		got, err := run(obs.With(context.Background(), tr))
		if err != nil || len(got) != 3 {
			t.Fatalf("%s: %d points, %v", name, len(got), err)
		}
		if tr.Shards() != 1 || shardsSearched(s) != 1 || s.shards[2].idx.Accesses() == 0 {
			t.Errorf("%s: trace reports %d shards searched, %d shards read blocks; want shard 2 alone",
				name, tr.Shards(), shardsSearched(s))
		}
		tr.Release()
	}
}

// TestMergeNearest: the k-bounded merge equals sorting everything seen so
// far by distance (ties in canonical order) and keeping the first k.
func TestMergeNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for round := 0; round < 200; round++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		k := 1 + rng.Intn(12)
		var best, all []geom.Point
		for shard := 0; shard < 1+rng.Intn(4); shard++ {
			got := make([]geom.Point, rng.Intn(k+1))
			for i := range got {
				// A coarse grid makes equidistant points common; a shard's own
				// answer is ordered by distance only.
				got[i] = geom.Pt(float64(rng.Intn(5))/4, float64(rng.Intn(5))/4)
			}
			index.SortByDistance(got, q)
			for i := len(got) - 1; i > 0; i-- {
				if q.Dist2(got[i]) == q.Dist2(got[i-1]) && rng.Intn(2) == 0 {
					got[i], got[i-1] = got[i-1], got[i]
				}
			}
			all = append(all, got...)
			best = mergeNearest(best, got, q, k)
		}
		index.SortByDistance(all, q)
		all = all[:min(k, len(all))]
		if len(best) != len(all) {
			t.Fatalf("round %d: merged %d points, want %d", round, len(best), len(all))
		}
		for i := range all {
			if best[i] != all[i] {
				t.Fatalf("round %d rank %d: merged %v, want %v", round, i, best[i], all[i])
			}
		}
	}
}

// TestShardedReadPathAllocs pins the sharded read path's allocation-free
// promises: a point query allocates nothing, and neither does a window
// answered by one shard into a buffer already large enough.
func TestShardedReadPathAllocs(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 4000, 79)
	for _, workers := range []int{1, 4} {
		opts := quickOpts(4)
		opts.Workers = workers
		s := New(pts, opts)
		ctx := context.Background()
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			i++
			p := pts[i%len(pts)]
			if found, err := s.PointQueryContext(ctx, p); !found || err != nil {
				t.Fatalf("PointQueryContext(%v) = %v, %v", p, found, err)
			}
			_, _ = s.PointQueryContext(ctx, geom.Pt(p.Y, p.X))
		}); n != 0 {
			t.Errorf("workers=%d: PointQueryContext allocates %v times per call, want 0", workers, n)
		}
		// Windows that one shard answers: small ones around that shard's points.
		var qs []geom.Rect
		for _, p := range pts {
			q := geom.RectAround(p, 0.02, 0.02)
			if _, n := s.windowCandidates(q); n == 1 {
				qs = append(qs, q)
			}
		}
		if len(qs) < len(pts)/2 {
			t.Fatalf("only %d of %d small windows have one candidate shard", len(qs), len(pts))
		}
		buf := make([]geom.Point, 0, len(pts))
		rows := 0
		if n := testing.AllocsPerRun(200, func() {
			i++
			buf, _ = s.WindowQueryAppend(ctx, buf[:0], qs[i%len(qs)])
			rows += len(buf)
		}); n != 0 {
			t.Errorf("workers=%d: one-shard WindowQueryAppend into a warm buffer allocates %v times per call, want 0", workers, n)
		}
		if rows == 0 {
			t.Error("window probes matched nothing; the pin measured an empty path")
		}
	}
}
