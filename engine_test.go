package rsmi_test

// Cross-engine tests of the v2 rsmi.Engine API: every backend — learned
// engines and baseline engines alike — must honour contexts, answer its
// batch and append forms exactly like its single queries, and (for the
// baselines) answer exactly.

import (
	"context"
	"slices"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// v2Engines builds every Engine implementation over the same points.
func v2Engines(t *testing.T, pts []rsmi.Point) map[string]rsmi.Engine {
	t.Helper()
	opts := rsmi.Options{
		BlockCapacity:      50,
		PartitionThreshold: 500,
		Epochs:             10,
		LearningRate:       0.1,
		Seed:               1,
	}
	grid, err := rsmi.NewBaselineEngine("grid", pts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]rsmi.Engine{
		"Index":    rsmi.New(pts, opts),
		"Sharded1": rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: 1, Index: opts}),
		"Sharded":  rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: 3, Index: opts}),
		"rstar":    rsmi.NewRStarEngine(pts, 0),
		"grid":     grid,
		"kdb":      rsmi.NewKDBEngine(pts, 0),
	}
}

// TestEngineCancelledContext checks every engine fails fast on a
// cancelled context, for every method of the interface.
func TestEngineCancelledContext(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1000, 5)
	q := rsmi.RectAround(pts[0], 0.1, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, eng := range v2Engines(t, pts) {
		if _, err := eng.PointQueryContext(ctx, pts[0]); err != context.Canceled {
			t.Errorf("%s PointQueryContext: %v", name, err)
		}
		if _, err := eng.WindowQueryContext(ctx, q); err != context.Canceled {
			t.Errorf("%s WindowQueryContext: %v", name, err)
		}
		if _, err := eng.WindowQueryAppend(ctx, nil, q); err != context.Canceled {
			t.Errorf("%s WindowQueryAppend: %v", name, err)
		}
		if _, err := eng.ExactWindowContext(ctx, q); err != context.Canceled {
			t.Errorf("%s ExactWindowContext: %v", name, err)
		}
		if _, err := eng.KNNContext(ctx, pts[0], 5); err != context.Canceled {
			t.Errorf("%s KNNContext: %v", name, err)
		}
		if _, err := eng.ExactKNNContext(ctx, pts[0], 5); err != context.Canceled {
			t.Errorf("%s ExactKNNContext: %v", name, err)
		}
		if _, err := eng.BatchPointQueryContext(ctx, pts[:4]); err != context.Canceled {
			t.Errorf("%s BatchPointQueryContext: %v", name, err)
		}
		if _, err := eng.BatchWindowQueryContext(ctx, []rsmi.Rect{q}); err != context.Canceled {
			t.Errorf("%s BatchWindowQueryContext: %v", name, err)
		}
		if _, err := eng.BatchKNNContext(ctx, []rsmi.KNNQuery{{Q: pts[0], K: 3}}); err != context.Canceled {
			t.Errorf("%s BatchKNNContext: %v", name, err)
		}
		if err := eng.InsertContext(ctx, rsmi.Pt(0.5, 0.5)); err != context.Canceled {
			t.Errorf("%s InsertContext: %v", name, err)
		}
		if _, err := eng.DeleteContext(ctx, pts[0]); err != context.Canceled {
			t.Errorf("%s DeleteContext: %v", name, err)
		}
		if err := eng.RebuildContext(ctx); err != context.Canceled {
			t.Errorf("%s RebuildContext: %v", name, err)
		}
		if eng.Len() != len(pts) {
			t.Errorf("%s: cancelled writes changed Len to %d", name, eng.Len())
		}
	}
}

// TestEngineVariantsAgree checks, with a background context, that every
// engine's append and batch forms answer element-wise exactly like its
// single-query methods — same points in the same order — for all three
// batch kinds, and that the whole v2 surface round-trips writes.
func TestEngineVariantsAgree(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1000, 7)
	ctx := context.Background()
	wins := workload.Windows(pts, 5, 0.01, 1, 8)
	probes := append(append([]rsmi.Point(nil), pts[:20]...), rsmi.Pt(-1, -1), rsmi.Pt(0.5, 2))
	var knns []rsmi.KNNQuery
	for i, q := range workload.KNNPoints(pts, 12, 9) {
		knns = append(knns, rsmi.KNNQuery{Q: q, K: []int{7, 1, 0, 25}[i%4]})
	}
	for name, eng := range v2Engines(t, pts) {
		batchWin, err := eng.BatchWindowQueryContext(ctx, wins)
		if err != nil || len(batchWin) != len(wins) {
			t.Fatalf("%s BatchWindowQueryContext: %d answers, %v; want %d", name, len(batchWin), err, len(wins))
		}
		for i, q := range wins {
			got, err := eng.WindowQueryContext(ctx, q)
			if err != nil {
				t.Fatalf("%s WindowQueryContext: %v", name, err)
			}
			appended, err := eng.WindowQueryAppend(ctx, nil, q)
			if err != nil || !slices.Equal(appended, got) {
				t.Fatalf("%s WindowQueryAppend: %d points, %v; WindowQueryContext %d", name, len(appended), err, len(got))
			}
			if !slices.Equal(batchWin[i], got) {
				t.Fatalf("%s window %d: batch %d points, single %d", name, i, len(batchWin[i]), len(got))
			}
		}
		batchPt, err := eng.BatchPointQueryContext(ctx, probes)
		if err != nil || len(batchPt) != len(probes) {
			t.Fatalf("%s BatchPointQueryContext: %d answers, %v; want %d", name, len(batchPt), err, len(probes))
		}
		for i, q := range probes {
			found, err := eng.PointQueryContext(ctx, q)
			if err != nil || batchPt[i] != found || found != (i < 20) {
				t.Fatalf("%s point %d (%v): batch %v, single %v, %v", name, i, q, batchPt[i], found, err)
			}
		}
		batchKNN, err := eng.BatchKNNContext(ctx, knns)
		if err != nil || len(batchKNN) != len(knns) {
			t.Fatalf("%s BatchKNNContext: %d answers, %v; want %d", name, len(batchKNN), err, len(knns))
		}
		for i, q := range knns {
			got, err := eng.KNNContext(ctx, q.Q, q.K)
			if err != nil || !slices.Equal(batchKNN[i], got) || len(got) != max(q.K, 0) {
				t.Fatalf("%s kNN %d (k=%d): batch %v, single %v, %v", name, i, q.K, batchKNN[i], got, err)
			}
		}

		// Insert / query / delete through the v2 surface.
		p := rsmi.Pt(0.31415, 0.92653)
		if err := eng.InsertContext(ctx, p); err != nil {
			t.Fatalf("%s InsertContext: %v", name, err)
		}
		if found, _ := eng.PointQueryContext(ctx, p); !found {
			t.Fatalf("%s: inserted point not found", name)
		}
		deleted, err := eng.DeleteContext(ctx, p)
		if err != nil || !deleted {
			t.Fatalf("%s DeleteContext = %v, %v", name, deleted, err)
		}
		if err := eng.RebuildContext(ctx); err != nil {
			t.Fatalf("%s RebuildContext: %v", name, err)
		}
		if eng.Len() != len(pts) {
			t.Fatalf("%s: Len = %d after rebuild, want %d", name, eng.Len(), len(pts))
		}
	}
}

// TestBaselineEnginesExact checks the baseline engines answer window and
// kNN queries exactly (recall 1 against the brute-force oracle) — they
// adapt exact indexes and must not lose that property.
func TestBaselineEnginesExact(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1500, 9)
	oracle := index.NewLinear(pts)
	ctx := context.Background()
	for _, name := range []string{"rstar", "grid", "kdb"} {
		eng, err := rsmi.NewBaselineEngine(name, pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.Windows(pts, 8, 0.005, 1, 10) {
			got, err := eng.WindowQueryContext(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := oracle.WindowQuery(q)
			if r := index.Recall(got, want); r != 1 {
				t.Fatalf("%s window recall %.3f (got %d, want %d)", name, r, len(got), len(want))
			}
			if len(got) != len(want) {
				t.Fatalf("%s window returned %d points, oracle %d (false positives?)", name, len(got), len(want))
			}
		}
		got, err := eng.KNNContext(ctx, pts[11], 10)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.KNN(pts[11], 10)
		if r := index.KNNRecall(got, want, pts[11]); r != 1 {
			t.Fatalf("%s kNN recall %.3f", name, r)
		}
	}
	if _, err := rsmi.NewBaselineEngine("btree", pts); err == nil {
		t.Fatal("unknown baseline name accepted")
	}
}
