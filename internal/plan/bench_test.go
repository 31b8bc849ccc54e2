package plan

// The measured price of routing: Choose on the hot path, and a full
// planner batch against calling the fixed backend directly. The
// EXPERIMENTS.md planner table cites these when attributing the
// tiny-window gap to per-query routing overhead.

import (
	"context"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
)

func BenchmarkChooseWindow(b *testing.B) {
	pts := dataset.Generate(dataset.Skewed, 20000, 1)
	st := NewStats(pts)
	st.mu.Lock()
	st.set.Store(NewStatsFromModels(len(pts), map[string]Model{
		"A": {PointUS: 1, WindowBaseUS: 5, WindowPerRowUS: 0.1, KNNBaseUS: 10, KNNPerKUS: 1},
		"B": {PointUS: 2, WindowBaseUS: 2, WindowPerRowUS: 0.5, KNNBaseUS: 5, KNNPerKUS: 2},
	}).set.Load())
	st.mu.Unlock()
	q := Query{Kind: KindWindow, Window: geom.RectAround(pts[0], 0.01, 0.01)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Choose(q)
	}
}

// BenchmarkBatchWindowOverhead compares a 32-query uniform batch through
// the planner (plan + route + observe) against the same backend called
// directly; the per-query delta is the routing overhead the planner
// experiment's tiny-window cells pay.
func BenchmarkBatchWindowOverhead(b *testing.B) {
	pts := dataset.Generate(dataset.Skewed, 20000, 1)
	ref := baseline(b, "rstar", pts)
	st := NewStats(pts)
	st.mu.Lock()
	st.set.Store(NewStatsFromModels(len(pts), map[string]Model{
		ref.Name(): {PointUS: 1, WindowBaseUS: 5, WindowPerRowUS: 0.1, KNNBaseUS: 10, KNNPerKUS: 1},
	}).set.Load())
	st.mu.Unlock()
	me, err := NewMultiEngine(st, ref)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]geom.Rect, 32)
	for i := range qs {
		qs[i] = geom.RectAround(pts[(i*131)%len(pts)], 0.004, 0.004)
	}
	ctx := context.Background()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ref.BatchWindowQueryContext(ctx, qs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("planner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := me.BatchWindowQueryContext(ctx, qs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
