package shard

// Cancellation semantics of the sharded fan-outs: deadline-exceeded and
// mid-query cancel must stop window/kNN execution between shard visits
// (never surfacing a partial answer), and the composed answers must be
// the shards' own. Run under -race in CI.

import (
	"context"
	"testing"
	"time"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
)

// buildCtx builds a small sharded index whose every shard overlaps the
// full-space window, with Workers=1 so fan-out visit order (and therefore
// mid-query cancellation) is deterministic.
func buildCtx(t *testing.T, shards int) (*Sharded, []geom.Point) {
	t.Helper()
	pts := dataset.Generate(dataset.Uniform, 1200, 17)
	s := New(pts, Options{
		Shards:  shards,
		Workers: 1,
		Index: core.Options{
			BlockCapacity:      25,
			PartitionThreshold: 100,
			Epochs:             5,
			Seed:               1,
		},
	})
	return s, pts
}

var fullSpace = geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}

// cancelAfterFirstSearch is a context that reports Canceled from the moment
// any shard of s has read a block: what a caller cancelling during the first
// shard's search looks like to a walk that checks ctx between shards.
type cancelAfterFirstSearch struct {
	context.Context
	s *Sharded
}

func (c cancelAfterFirstSearch) Err() error {
	if c.s.Accesses() > 0 {
		return context.Canceled
	}
	return nil
}

// shardsSearched counts the shards that have read at least one block.
func shardsSearched(s *Sharded) int {
	n := 0
	for _, sh := range s.shards {
		if sh.idx.Accesses() > 0 {
			n++
		}
	}
	return n
}

// TestWindowFanOutStopsOnCancel cancels the context during the first shard
// visit and asserts the walk stops before visiting all shards — the
// acceptance criterion of the v2 API redesign.
func TestWindowFanOutStopsOnCancel(t *testing.T) {
	s, _ := buildCtx(t, 8)
	s.ResetAccesses()
	out, err := s.WindowQueryAppend(cancelAfterFirstSearch{context.Background(), s}, nil, fullSpace)
	if err != context.Canceled {
		t.Fatalf("cancelled window walk returned %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("cancelled window walk surfaced %d points", len(out))
	}
	if visits := shardsSearched(s); visits != 1 {
		t.Fatalf("Workers=1 walk searched %d of %d shards after cancel, want exactly 1", visits, s.NumShards())
	}
}

// TestKNNFanOutStopsOnCancel is the kNN counterpart: cancelling during
// the first shard's search stops the best-first walk. k exceeds any one
// shard's share, so without the cancel every shard would be searched.
func TestKNNFanOutStopsOnCancel(t *testing.T) {
	s, pts := buildCtx(t, 8)
	k := len(pts) / 2
	s.ResetAccesses()
	if must(s.KNNContext(bg, pts[0], k)); shardsSearched(s) < 2 {
		t.Fatalf("uncancelled %d-NN searched %d shards; the cancel below would prove nothing", k, shardsSearched(s))
	}
	s.ResetAccesses()
	out, err := s.KNNContext(cancelAfterFirstSearch{context.Background(), s}, pts[0], k)
	if err != context.Canceled || out != nil {
		t.Fatalf("cancelled kNN walk returned %d points, %v; want none, context.Canceled", len(out), err)
	}
	if visits := shardsSearched(s); visits != 1 {
		t.Fatalf("cancelled kNN walk searched %d of %d shards, want exactly 1", visits, s.NumShards())
	}
}

// TestDeadlineExceededFansOutNothing checks that an already-expired
// deadline fails every context-aware query without touching a single
// block, on both the parallel (default Workers) and serial paths.
func TestDeadlineExceededFansOutNothing(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 1200, 19)
	for _, workers := range []int{0, 1} {
		s := New(pts, Options{Shards: 4, Workers: workers, Index: core.Options{
			BlockCapacity: 25, PartitionThreshold: 100, Epochs: 5, Seed: 1,
		}})
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		s.ResetAccesses()

		if _, err := s.WindowQueryContext(ctx, fullSpace); err != context.DeadlineExceeded {
			t.Fatalf("WindowQueryContext: %v, want DeadlineExceeded", err)
		}
		if _, err := s.ExactWindowContext(ctx, fullSpace); err != context.DeadlineExceeded {
			t.Fatalf("ExactWindowContext: %v", err)
		}
		if _, err := s.KNNContext(ctx, pts[0], 5); err != context.DeadlineExceeded {
			t.Fatalf("KNNContext: %v", err)
		}
		if _, err := s.ExactKNNContext(ctx, pts[0], 5); err != context.DeadlineExceeded {
			t.Fatalf("ExactKNNContext: %v", err)
		}
		if _, err := s.PointQueryContext(ctx, pts[0]); err != context.DeadlineExceeded {
			t.Fatalf("PointQueryContext: %v", err)
		}
		if _, err := s.BatchWindowQueryContext(ctx, []geom.Rect{fullSpace}); err != context.DeadlineExceeded {
			t.Fatalf("BatchWindowQueryContext: %v", err)
		}
		if _, err := s.BatchPointQueryContext(ctx, pts[:3]); err != context.DeadlineExceeded {
			t.Fatalf("BatchPointQueryContext: %v", err)
		}
		if _, err := s.BatchKNNContext(ctx, []KNNQuery{{Q: pts[0], K: 3}}); err != context.DeadlineExceeded {
			t.Fatalf("BatchKNNContext: %v", err)
		}
		if err := s.InsertContext(ctx, geom.Pt(0.5, 0.5)); err != context.DeadlineExceeded {
			t.Fatalf("InsertContext: %v", err)
		}
		if _, err := s.DeleteContext(ctx, pts[0]); err != context.DeadlineExceeded {
			t.Fatalf("DeleteContext: %v", err)
		}
		if err := s.RebuildContext(ctx); err != context.DeadlineExceeded {
			t.Fatalf("RebuildContext: %v", err)
		}
		if n := s.Accesses(); n != 0 {
			t.Fatalf("expired-context queries touched %d blocks, want 0", n)
		}
	}
}

// TestContextVariantsMatchShards pins what the sharded surface composes:
// with a background context, an indexed point is found, a window is the
// shard-order concatenation of the overlapping shards' own exact windows,
// a kNN is the nearest k of every shard's own exact kNN, and
// WindowQueryAppend appends
// exactly the WindowQueryContext answer to the caller's buffer.
func TestContextVariantsMatchShards(t *testing.T) {
	s, pts := buildCtx(t, 4)
	q := geom.RectAround(pts[3], 0.2, 0.2)

	found, err := s.PointQueryContext(bg, pts[0])
	if err != nil || !found {
		t.Fatalf("PointQueryContext(indexed) = %v, %v", found, err)
	}
	var want []geom.Point
	nearest := index.NewNearest(pts[5], 7)
	for _, sh := range s.shards {
		if sh.loadRegion().Intersects(q) {
			want = append(want, sh.idx.WindowQuery(q)...)
		}
		nearest.Offer(sh.idx.KNN(pts[5], 7)...)
	}
	wantKNN := nearest.Points()
	win, err := s.WindowQueryContext(bg, q)
	if err != nil || len(win) != len(want) {
		t.Fatalf("WindowQueryContext: %d points, %v; the shards give %d", len(win), err, len(want))
	}
	for i := range win {
		if win[i] != want[i] {
			t.Fatalf("window point %d differs", i)
		}
	}
	knn, err := s.KNNContext(bg, pts[5], 7)
	if err != nil || len(knn) != 7 {
		t.Fatalf("KNNContext: %d points, %v", len(knn), err)
	}
	for i := range knn {
		if knn[i] != wantKNN[i] {
			t.Fatalf("kNN point %d: %v, the shards give %v", i, knn[i], wantKNN[i])
		}
	}

	// WindowQueryAppend reuses the caller's buffer and appends exactly
	// the WindowQueryContext answer.
	dst := make([]geom.Point, 1, 64)
	dst[0] = geom.Pt(-7, -7)
	got, err := s.WindowQueryAppend(bg, dst, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(win) || got[0] != geom.Pt(-7, -7) {
		t.Fatalf("WindowQueryAppend: %d points (want prefix + %d)", len(got), len(win))
	}
	for i := range win {
		if got[1+i] != win[i] {
			t.Fatalf("appended point %d differs", i)
		}
	}
}

// TestRebuildContextCancelledKeepsServing checks an aborted rolling
// rebuild leaves a consistent, queryable index.
func TestRebuildContextCancelledKeepsServing(t *testing.T) {
	s, pts := buildCtx(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RebuildContext(ctx); err != context.Canceled {
		t.Fatalf("RebuildContext: %v, want context.Canceled", err)
	}
	if s.Len() != len(pts) {
		t.Fatalf("aborted rebuild lost points: %d of %d", s.Len(), len(pts))
	}
	if !must(s.PointQueryContext(bg, pts[42])) {
		t.Fatal("index unqueryable after aborted rebuild")
	}
}

// TestCancelDuringConcurrentLoad hammers context-aware queries while a
// canceller fires at random; run under -race, it checks the fan-out's
// cancellation path is data-race-free and never panics or returns a
// partial answer alongside a nil error.
func TestCancelDuringConcurrentLoad(t *testing.T) {
	s, pts := buildCtx(t, 4)
	full := must(s.WindowQueryContext(bg, fullSpace))
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*100*time.Microsecond)
				pts2, err := s.WindowQueryContext(ctx, fullSpace)
				if err == nil && len(pts2) != len(full) {
					t.Errorf("g%d i%d: partial answer (%d of %d) with nil error", g, i, len(pts2), len(full))
				}
				if _, err := s.KNNContext(ctx, pts[i%len(pts)], 5); err != nil && err != context.DeadlineExceeded && err != context.Canceled {
					t.Errorf("g%d i%d: unexpected kNN error %v", g, i, err)
				}
				cancel()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestInsertInsideRegionKeepsRectangle: an insert the owning region already
// covers publishes no new routing rectangle; one outside every region does.
func TestInsertInsideRegionKeepsRectangle(t *testing.T) {
	s, _ := buildCtx(t, 2)
	regions := func() []*geom.Rect {
		out := make([]*geom.Rect, len(s.shards))
		for i, sh := range s.shards {
			out[i] = sh.region.Load()
		}
		return out
	}
	before := regions()
	mustInsert(t, s, s.shards[0].loadRegion().Center())
	for i, r := range regions() {
		if r != before[i] {
			t.Errorf("shard %d: an insert inside the regions replaced its rectangle", i)
		}
	}
	outside := geom.Pt(2, 2)
	mustInsert(t, s, outside)
	grown := 0
	for i, r := range regions() {
		if r != before[i] {
			grown++
			if !r.Contains(outside) {
				t.Errorf("shard %d: new region %v does not cover %v", i, *r, outside)
			}
		}
	}
	if grown != 1 {
		t.Errorf("an insert outside every region replaced %d rectangles, want 1", grown)
	}
}
