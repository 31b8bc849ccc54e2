package plan

// MultiEngine correctness: whatever the router decides, the answers
// must be byte-identical to a fixed backend's — routing is a cost
// decision, never a semantics decision. Models are seeded (no
// wall-clock calibration), so these tests are deterministic.

import (
	"context"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/shard"
)

// baseline builds the named baseline engine, failing the test on an error.
func baseline(tb testing.TB, name string, pts []geom.Point) rsmi.Engine {
	tb.Helper()
	eng, err := rsmi.NewBaselineEngine(name, pts)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// testMulti builds a MultiEngine over the R*-tree and Grid File
// baselines with seeded models that send tiny windows to the R*-tree
// and large ones to the Grid File, so batch tests exercise the
// group-and-scatter path across both backends.
func testMulti(t *testing.T) (*MultiEngine, []geom.Point, rsmi.Engine) {
	t.Helper()
	pts := dataset.Generate(dataset.Skewed, 3000, 7)
	ref, grid := baseline(t, "rstar", pts), baseline(t, "grid", pts)
	stats := NewStatsFromModels(len(pts), map[string]Model{
		ref.Name():  {PointUS: 1, WindowBaseUS: 1, WindowPerRowUS: 1, KNNBaseUS: 10, KNNPerKUS: 1},
		grid.Name(): {PointUS: 2, WindowBaseUS: 50, WindowPerRowUS: 0.01, KNNBaseUS: 5, KNNPerKUS: 1},
	})
	// Rebuild the estimator over the real point set so window plans
	// split between the two backends by selectivity.
	real := NewStats(pts)
	real.mu.Lock()
	real.set.Store(stats.set.Load())
	real.mu.Unlock()
	me, err := NewMultiEngine(real, ref, grid)
	if err != nil {
		t.Fatal(err)
	}
	return me, pts, ref
}

func TestMultiEngineBatchWindowMatchesFixed(t *testing.T) {
	me, pts, ref := testMulti(t)
	ctx := context.Background()
	// A mix of tiny and huge windows, so the batch genuinely splits
	// across backends and the scatter must restore request order.
	var qs []geom.Rect
	for i := 0; i < 16; i++ {
		c := pts[(i*197)%len(pts)]
		side := 0.004
		if i%3 == 0 {
			side = 0.4
		}
		qs = append(qs, geom.RectAround(c, side, side))
	}
	got, err := me.BatchWindowQueryContext(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.BatchWindowQueryContext(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		assertSamePoints(t, i, got[i], want[i])
	}
	c := me.PlannerStats()
	if len(c.Routed) < 2 {
		t.Fatalf("batch did not split across backends: routed=%v", c.Routed)
	}
}

func TestMultiEngineBatchKNNAndPointMatchFixed(t *testing.T) {
	me, pts, ref := testMulti(t)
	ctx := context.Background()
	var kqs []shard.KNNQuery
	var pqs []geom.Point
	for i := 0; i < 12; i++ {
		kqs = append(kqs, shard.KNNQuery{Q: pts[(i*311)%len(pts)], K: 1 + i%5})
		pqs = append(pqs, pts[(i*113)%len(pts)], geom.Pt(float64(i)*0.07, 0.5))
	}
	gotK, err := me.BatchKNNContext(ctx, kqs)
	if err != nil {
		t.Fatal(err)
	}
	wantK, err := ref.BatchKNNContext(ctx, kqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantK {
		if len(gotK[i]) != len(wantK[i]) {
			t.Fatalf("kNN %d: got %d points, want %d", i, len(gotK[i]), len(wantK[i]))
		}
	}
	gotP, err := me.BatchPointQueryContext(ctx, pqs)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := ref.BatchPointQueryContext(ctx, pqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantP {
		if gotP[i] != wantP[i] {
			t.Fatalf("point %d: got %v, want %v", i, gotP[i], wantP[i])
		}
	}
}

func TestMultiEngineWritesReachEveryBackend(t *testing.T) {
	me, _, _ := testMulti(t)
	ctx := context.Background()
	p := geom.Pt(0.123456, 0.654321)
	if err := me.InsertContext(ctx, p); err != nil {
		t.Fatal(err)
	}
	for _, b := range me.backends {
		found, err := b.PointQueryContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("insert did not reach backend %s", b.Name())
		}
	}
	deleted, err := me.DeleteContext(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !deleted {
		t.Fatal("delete reported not-present for a point just inserted")
	}
	for _, b := range me.backends {
		found, err := b.PointQueryContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("delete did not reach backend %s", b.Name())
		}
	}
}

// assertSamePoints compares two window results as sets (backends may
// order results differently).
func assertSamePoints(t *testing.T, i int, got, want []geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("window %d: got %d points, want %d", i, len(got), len(want))
	}
	seen := make(map[geom.Point]int, len(want))
	for _, p := range want {
		seen[p]++
	}
	for _, p := range got {
		if seen[p] == 0 {
			t.Fatalf("window %d: unexpected point %+v", i, p)
		}
		seen[p]--
	}
}
