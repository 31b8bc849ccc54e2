package rsmi_test

// Edge-case coverage for the Engine surface of every backend — Index,
// Sharded (one shard and four) and the three baseline engines:
// k = 0 and k < 0, k > N, empty indexes, zero-area windows and non-finite
// coordinates — each verified against the brute-force oracle. These are
// exactly the degenerate requests a network serving layer (internal/server)
// forwards verbatim from untrusted clients, so they must be total and
// correct on every engine.

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/index"
)

// must returns v, panicking on err: for a call made with
// context.Background(), which fails only on a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// mustInsert inserts p, failing t if the engine refuses it.
func mustInsert(t testing.TB, e rsmi.Engine, p rsmi.Point) {
	t.Helper()
	if err := e.InsertContext(context.Background(), p); err != nil {
		t.Errorf("InsertContext(%v): %v", p, err)
	}
}

// engines builds every Engine over the same points.
func engines(pts []rsmi.Point) map[string]rsmi.Engine {
	opts := rsmi.Options{
		BlockCapacity:      50,
		PartitionThreshold: 500,
		Epochs:             10,
		LearningRate:       0.1,
		Seed:               1,
	}
	sharded := func(shards int) *rsmi.Sharded {
		return rsmi.NewSharded(pts, rsmi.ShardOptions{Shards: shards, Index: opts})
	}
	return map[string]rsmi.Engine{
		"Index":        rsmi.New(pts, opts),
		"Sharded1":     sharded(1),
		"ShardedSpace": sharded(4),
		"rstar":        rsmi.NewRStarEngine(pts, 0),
		"grid":         rsmi.NewGridFileEngine(pts, 0),
		"kdb":          rsmi.NewKDBEngine(pts, 0),
	}
}

func TestKNNEdgeCases(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1500, 81)
	lin := index.NewLinear(pts)
	q := rsmi.Pt(0.4, 0.3)
	ctx := context.Background()
	for name, e := range engines(pts) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// k <= 0 yields empty, never panics.
			for _, k := range []int{0, -1, -1000} {
				if got := must(e.KNNContext(ctx, q, k)); len(got) != 0 {
					t.Fatalf("KNN(k=%d) returned %d points", k, len(got))
				}
				if got := must(e.ExactKNNContext(ctx, q, k)); len(got) != 0 {
					t.Fatalf("ExactKNN(k=%d) returned %d points", k, len(got))
				}
			}
			// k > N: ExactKNN returns every point, distance-matched to the
			// oracle; approximate KNN returns at most N real points, sorted.
			truth := lin.KNN(q, len(pts)+100)
			exact := must(e.ExactKNNContext(ctx, q, len(pts)+100))
			if len(exact) != len(pts) {
				t.Fatalf("ExactKNN(k>N) returned %d points, want %d", len(exact), len(pts))
			}
			for i := range exact {
				if q.Dist2(exact[i]) != q.Dist2(truth[i]) {
					t.Fatalf("ExactKNN(k>N) distance %d: got %v want %v",
						i, q.Dist2(exact[i]), q.Dist2(truth[i]))
				}
			}
			approx := must(e.KNNContext(ctx, q, len(pts)+100))
			if len(approx) > len(pts) {
				t.Fatalf("KNN(k>N) returned %d points for %d indexed", len(approx), len(pts))
			}
			for i, p := range approx {
				if !lin.PointQuery(p) {
					t.Fatalf("KNN(k>N) returned non-indexed point %v", p)
				}
				if i > 0 && q.Dist2(approx[i-1]) > q.Dist2(p) {
					t.Fatalf("KNN(k>N) results unsorted at %d", i)
				}
			}
			// k == N is exact for ExactKNN too.
			if got := must(e.ExactKNNContext(ctx, q, len(pts))); len(got) != len(pts) {
				t.Fatalf("ExactKNN(k=N) returned %d points", len(got))
			}
		})
	}
}

func TestZeroAreaWindow(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 1500, 83)
	lin := index.NewLinear(pts)
	ctx := context.Background()
	for name, e := range engines(pts) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// A zero-area window on an indexed point: the oracle returns
			// exactly that point; ExactWindow must match it, WindowQuery
			// may only ever return it (no false positives).
			target := pts[123]
			degen := rsmi.NewRect(target, target)
			truth := lin.WindowQuery(degen)
			if len(truth) != 1 || truth[0] != target {
				t.Fatalf("oracle on degenerate window: %v", truth)
			}
			exact := must(e.ExactWindowContext(ctx, degen))
			if len(exact) != 1 || exact[0] != target {
				t.Fatalf("ExactWindow(zero-area) = %v, want [%v]", exact, target)
			}
			for _, p := range must(e.WindowQueryContext(ctx, degen)) {
				if p != target {
					t.Fatalf("WindowQuery(zero-area) returned foreign point %v", p)
				}
			}
			// A zero-area window on empty space returns nothing.
			empty := rsmi.NewRect(rsmi.Pt(-0.5, -0.5), rsmi.Pt(-0.5, -0.5))
			if got := must(e.ExactWindowContext(ctx, empty)); len(got) != 0 {
				t.Fatalf("ExactWindow on empty location returned %d points", len(got))
			}
			if got := must(e.WindowQueryContext(ctx, empty)); len(got) != 0 {
				t.Fatalf("WindowQuery on empty location returned %d points", len(got))
			}
			// Zero-width (line) window: oracle equivalence for the exact
			// variant, no false positives for the approximate one.
			line := rsmi.NewRect(rsmi.Pt(target.X, 0), rsmi.Pt(target.X, 1))
			truth = lin.WindowQuery(line)
			exact = must(e.ExactWindowContext(ctx, line))
			if index.Recall(exact, truth) != 1 || len(exact) != len(truth) {
				t.Fatalf("ExactWindow(line) returned %d points, oracle %d", len(exact), len(truth))
			}
			for _, p := range must(e.WindowQueryContext(ctx, line)) {
				if !line.Contains(p) {
					t.Fatalf("WindowQuery(line) false positive %v", p)
				}
			}
		})
	}
}

func TestEmptyIndexEdgeCases(t *testing.T) {
	ctx := context.Background()
	for name, e := range engines(nil) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if e.Len() != 0 {
				t.Fatalf("Len = %d", e.Len())
			}
			q := rsmi.Pt(0.5, 0.5)
			if must(e.PointQueryContext(ctx, q)) {
				t.Fatal("PointQuery on empty index found a point")
			}
			whole := rsmi.NewRect(rsmi.Pt(0, 0), rsmi.Pt(1, 1))
			if got := must(e.WindowQueryContext(ctx, whole)); len(got) != 0 {
				t.Fatalf("WindowQuery on empty index returned %d", len(got))
			}
			if got := must(e.ExactWindowContext(ctx, whole)); len(got) != 0 {
				t.Fatalf("ExactWindow on empty index returned %d", len(got))
			}
			for _, k := range []int{0, 1, 10} {
				if got := must(e.KNNContext(ctx, q, k)); len(got) != 0 {
					t.Fatalf("KNN(k=%d) on empty index returned %d", k, len(got))
				}
				if got := must(e.ExactKNNContext(ctx, q, k)); len(got) != 0 {
					t.Fatalf("ExactKNN(k=%d) on empty index returned %d", k, len(got))
				}
			}
			if must(e.DeleteContext(ctx, q)) {
				t.Fatal("Delete on empty index succeeded")
			}
			// The empty index accepts inserts and then answers queries.
			if err := e.InsertContext(ctx, q); err != nil {
				t.Fatalf("InsertContext into empty index: %v", err)
			}
			if !must(e.PointQueryContext(ctx, q)) || e.Len() != 1 {
				t.Fatal("insert into empty index lost")
			}
			if got := must(e.ExactKNNContext(ctx, q, 5)); len(got) != 1 || got[0] != q {
				t.Fatalf("ExactKNN after first insert: %v", got)
			}
		})
	}
}

// answers is what an engine says about its whole data set: the cardinality,
// the exact and the approximate window over a rectangle that holds every
// point, and an exact kNN — each as a sorted set.
type answers struct {
	n                  int
	exact, approx, knn []rsmi.Point
}

func answersOf(e rsmi.Engine) answers {
	ctx := context.Background()
	everything := rsmi.NewRect(rsmi.Pt(-1, -1), rsmi.Pt(2, 2))
	a := answers{e.Len(), must(e.ExactWindowContext(ctx, everything)), must(e.WindowQueryContext(ctx, everything)), must(e.ExactKNNContext(ctx, rsmi.Pt(0.4, 0.3), 25))}
	for _, ps := range [][]rsmi.Point{a.exact, a.approx, a.knn} {
		slices.SortFunc(ps, rsmi.Point.Compare)
	}
	return a
}

func (a answers) equal(b answers) bool {
	return a.n == b.n && slices.Equal(a.exact, b.exact) && slices.Equal(a.approx, b.approx) && slices.Equal(a.knn, b.knn)
}

// TestNonFiniteQueries: embedded callers reach the engines without the
// server's request validation, so a NaN, an infinity or an absurdly distant
// coordinate must get an answer, not a panic. NaN is nowhere: no point is
// there, no window with a NaN edge contains anything, nothing is nearest to
// it. Infinite and huge coordinates are merely far away: whatever comes back
// must be indexed and, for a window, inside it.
//
// Writes and builds are held to more: a point with a NaN or infinite
// coordinate cannot be indexed — folded into an MBR it makes the leaf, every
// ancestor and the shard region rectangles that no query intersects, and the
// points under them vanish from every answer — so InsertContext refuses it
// with ErrNonFinitePoint on every engine, Index's context-free Insert drops
// it, a build skips it, and the index answers exactly as if the attempt had
// never been made.
func TestNonFiniteQueries(t *testing.T) {
	pts := dataset.Generate(dataset.Skewed, 1500, 85)
	ctx := context.Background()
	lin := index.NewLinear(pts)
	nan, inf := math.NaN(), math.Inf(1)
	unindexable := []rsmi.Point{
		{X: nan, Y: 0.5}, {X: 0.5, Y: nan}, {X: nan, Y: nan},
		{X: inf, Y: 0.5}, {X: 0.5, Y: inf}, {X: -inf, Y: 0.5}, {X: 0.5, Y: -inf}, {X: inf, Y: nan},
	}
	// The same points with unindexable ones mixed in, front, middle and back.
	dirty := append(append(append(append([]rsmi.Point(nil), unindexable[:3]...), pts[:700]...), unindexable[3:6]...), pts[700:]...)
	dirty = append(dirty, unindexable[6:]...)
	dirtyBuilt := engines(dirty)
	for name, e := range engines(pts) {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			clean := answersOf(e)
			if clean.n != len(pts) || len(clean.exact) != len(pts) {
				t.Fatalf("Len %d, ExactWindow over everything %d rows, want %d", clean.n, len(clean.exact), len(pts))
			}
			if got := answersOf(dirtyBuilt[name]); !got.equal(clean) {
				t.Errorf("built over %d extra unindexable points: Len %d, exact/approx/kNN %d/%d/%d rows; the clean build has %d, %d/%d/%d",
					len(unindexable), got.n, len(got.exact), len(got.approx), len(got.knn), clean.n, len(clean.exact), len(clean.approx), len(clean.knn))
			}
			for _, p := range unindexable {
				if err := e.InsertContext(ctx, p); !errors.Is(err, rsmi.ErrNonFinitePoint) {
					t.Errorf("InsertContext(%v) = %v, want ErrNonFinitePoint", p, err)
				}
				if idx, ok := e.(*rsmi.Index); ok {
					idx.Insert(p)
				}
				if got := answersOf(e); !got.equal(clean) {
					t.Fatalf("after the refused insert of %v: Len %d, exact/approx/kNN %d/%d/%d rows; before it %d, %d/%d/%d",
						p, got.n, len(got.exact), len(got.approx), len(got.knn), clean.n, len(clean.exact), len(clean.approx), len(clean.knn))
				}
			}
			// An indexable point still goes in (and comes back out).
			extra := rsmi.Pt(0.123, 0.456)
			err := e.InsertContext(ctx, extra)
			if found := must(e.PointQueryContext(ctx, extra)); err != nil || e.Len() != len(pts)+1 || !found {
				t.Fatalf("InsertContext(%v) = %v; Len %d, found %v", extra, err, e.Len(), found)
			}
			if !must(e.DeleteContext(ctx, extra)) {
				t.Fatalf("Delete(%v) did not find it", extra)
			}

			for _, q := range []rsmi.Point{{X: nan, Y: 0.5}, {X: 0.5, Y: nan}, {X: nan, Y: nan}} {
				if must(e.PointQueryContext(ctx, q)) {
					t.Errorf("PointQuery(%v) found a point", q)
				}
				if got := must(e.KNNContext(ctx, q, 5)); len(got) != 0 {
					t.Errorf("KNN(%v) returned %d rows", q, len(got))
				}
				if got, err := e.ExactKNNContext(ctx, q, 5); err != nil || len(got) != 0 {
					t.Errorf("ExactKNNContext(%v) returned %d rows, err %v", q, len(got), err)
				}
				for _, w := range []rsmi.Rect{
					{MinX: q.X, MinY: q.Y, MaxX: 1, MaxY: 1},
					{MinX: 0, MinY: 0, MaxX: q.X, MaxY: q.Y},
				} {
					if got := must(e.WindowQueryContext(ctx, w)); len(got) != 0 {
						t.Errorf("WindowQuery(%v) returned %d rows", w, len(got))
					}
				}
			}
			for _, far := range []float64{inf, -inf, 1e300, -1e300} {
				for _, q := range []rsmi.Point{{X: far, Y: 0.5}, {X: 0.5, Y: far}, {X: far, Y: -far}} {
					if must(e.PointQueryContext(ctx, q)) {
						t.Errorf("PointQuery(%v) found a point", q)
					}
					for _, p := range must(e.KNNContext(ctx, q, 5)) {
						if !lin.PointQuery(p) {
							t.Errorf("KNN(%v) returned %v, which is not indexed", q, p)
						}
					}
					w := rsmi.NewRect(rsmi.Pt(0.25, 0.25), q)
					for _, p := range must(e.WindowQueryContext(ctx, w)) {
						if !w.Contains(p) || !lin.PointQuery(p) {
							t.Errorf("WindowQuery(%v) returned %v, outside it or not indexed", w, p)
						}
					}
				}
			}
		})
	}
}
