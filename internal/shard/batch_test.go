package shard

import (
	"math/rand"
	"sync"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// TestBatchWindowMatchesPerQuery is the core batch-equivalence property on
// a quiescent index: BatchWindowQueryContext must return, per element,
// exactly the slice WindowQueryContext returns — same points, same order —
// for both partitionings, including degenerate windows.
func TestBatchWindowMatchesPerQuery(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			pts := dataset.Generate(dataset.Skewed, 3000, 31)
			s := New(pts, quickOpts(l.shards))
			qs := workload.Windows(pts, 40, 0.01, 1, 33)
			// Degenerate and disjoint windows ride along.
			qs = append(qs,
				geom.Rect{MinX: pts[7].X, MinY: pts[7].Y, MaxX: pts[7].X, MaxY: pts[7].Y},
				geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
				geom.Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3},
			)
			got := must(s.BatchWindowQueryContext(bg, qs))
			if len(got) != len(qs) {
				t.Fatalf("BatchWindowQuery returned %d results for %d queries", len(got), len(qs))
			}
			for i, q := range qs {
				want := must(s.WindowQueryContext(bg, q))
				if len(got[i]) != len(want) {
					t.Fatalf("query %d: batch %d points, per-query %d", i, len(got[i]), len(want))
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("query %d point %d: batch %v, per-query %v", i, j, got[i][j], want[j])
					}
				}
			}
		})
	}
}

// TestBatchPointMatchesPerQuery checks batch point probes against
// per-query answers, hits and misses alike.
func TestBatchPointMatchesPerQuery(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			pts := dataset.Generate(dataset.Uniform, 2000, 35)
			s := New(pts, quickOpts(l.shards))
			rng := rand.New(rand.NewSource(37))
			var qs []geom.Point
			for i := 0; i < 300; i++ {
				if i%2 == 0 {
					qs = append(qs, pts[rng.Intn(len(pts))])
				} else {
					qs = append(qs, geom.Pt(rng.Float64(), rng.Float64()))
				}
			}
			got := must(s.BatchPointQueryContext(bg, qs))
			for i, q := range qs {
				if want := must(s.PointQueryContext(bg, q)); got[i] != want {
					t.Fatalf("query %d (%v): batch %v, per-query %v", i, q, got[i], want)
				}
			}
		})
	}
}

// TestBatchKNNInvariants checks the batch kNN guarantees: per element, the
// oracle's k nearest points in its order — all min(k, Len) of them — with
// nil for k <= 0.
func TestBatchKNNInvariants(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			pts := dataset.Generate(dataset.Skewed, 2000, 41)
			s := New(pts, quickOpts(l.shards))
			lin := index.NewLinear(pts)
			var qs []KNNQuery
			for i, q := range workload.KNNPoints(pts, 30, 43) {
				qs = append(qs, KNNQuery{Q: q, K: []int{0, 1, 5, 25, -3, 5000}[i%6]})
			}
			got := must(s.BatchKNNContext(bg, qs))
			if len(got) != len(qs) {
				t.Fatalf("BatchKNN returned %d results for %d queries", len(got), len(qs))
			}
			for i, q := range qs {
				if q.K <= 0 {
					if len(got[i]) != 0 {
						t.Fatalf("query %d: k=%d returned %d points", i, q.K, len(got[i]))
					}
					continue
				}
				sameList(t, "BatchKNN", q.Q, q.K, got[i], lin.KNN(q.Q, q.K))
			}
		})
	}
}

// TestBatchEmpty covers zero-length batches and batches against an empty
// index.
func TestBatchEmpty(t *testing.T) {
	s := New(nil, quickOpts(4))
	if got := must(s.BatchWindowQueryContext(bg, nil)); len(got) != 0 {
		t.Fatalf("empty window batch returned %d", len(got))
	}
	if got := must(s.BatchPointQueryContext(bg, nil)); len(got) != 0 {
		t.Fatalf("empty point batch returned %d", len(got))
	}
	if got := must(s.BatchKNNContext(bg, nil)); len(got) != 0 {
		t.Fatalf("empty knn batch returned %d", len(got))
	}
	got := must(s.BatchWindowQueryContext(bg, []geom.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}))
	if len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("window batch on empty index: %v", got)
	}
	if got := must(s.BatchKNNContext(bg, []KNNQuery{{Q: geom.Pt(0.5, 0.5), K: 3}})); len(got[0]) != 0 {
		t.Fatalf("knn batch on empty index: %v", got)
	}
}

// TestBatchWindowConcurrentInserts is the -race property test of the batch
// layer: BatchWindowQuery runs while writers insert, and every answer must
// stay consistent with per-query WindowQuery semantics — no false
// positives (every point inside its window) and no fabricated points
// (every point is an original or one of the concurrently inserted points).
// Once the writers finish, batch and per-query answers must again be
// identical.
func TestBatchWindowConcurrentInserts(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 2500, 47)
	s := New(pts, quickOpts(4))
	ins := workload.InsertPoints(pts, 1000, 48)
	known := make(map[geom.Point]bool, len(pts)+len(ins))
	for _, p := range pts {
		known[p] = true
	}
	for _, p := range ins {
		known[p] = true
	}
	qs := workload.Windows(pts, 30, 0.01, 1, 49)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ins); i += 2 {
				mustInsert(t, s, ins[i])
			}
		}(w)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				for qi, res := range must(s.BatchWindowQueryContext(bg, qs)) {
					for _, p := range res {
						if !qs[qi].Contains(p) {
							errs <- "batch window false positive under concurrent inserts"
							return
						}
						if !known[p] {
							errs <- "batch window returned fabricated point"
							return
						}
					}
				}
				must(s.BatchKNNContext(bg, []KNNQuery{{Q: qs[round%len(qs)].Center(), K: 5}}))
				must(s.BatchPointQueryContext(bg, []geom.Point{ins[round%len(ins)]}))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Quiescent again: batch ≡ per-query, now including the inserts.
	got := must(s.BatchWindowQueryContext(bg, qs))
	for i, q := range qs {
		want := must(s.WindowQueryContext(bg, q))
		if len(got[i]) != len(want) {
			t.Fatalf("post-insert query %d: batch %d points, per-query %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("post-insert query %d point %d differs", i, j)
			}
		}
	}
}
