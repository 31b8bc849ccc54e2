// Package indextest provides a conformance suite run against every spatial
// index in this repository. It checks the contracts the paper's evaluation
// relies on: no false negatives for point queries, exactness (or
// no-false-positive approximation with bounded recall loss) for window and
// kNN queries, correct update behaviour against a brute-force oracle, and
// sane statistics.
package indextest

import (
	"math"
	"math/rand"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// Config describes the index under test.
type Config struct {
	// Build constructs the index over the points.
	Build func(pts []geom.Point) index.Index
	// ExactWindow asserts window answers match the oracle exactly; when
	// false, answers must have no false positives and recall >= RecallFloor.
	ExactWindow bool
	// ExactKNN asserts kNN answers match the oracle's point for point,
	// equidistant points in Point.Less order; when false, recall >=
	// RecallFloor applies.
	ExactKNN bool
	// RecallFloor is the minimum acceptable average recall for approximate
	// indices (unused for exact ones).
	RecallFloor float64
	// SupportsUpdates enables the insert/delete sections.
	SupportsUpdates bool
	// N is the data set size (default 2500).
	N int
}

// Run executes the conformance suite.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 2500
	}
	for _, kind := range []dataset.Kind{dataset.Uniform, dataset.Skewed, dataset.OSMLike} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			pts := dataset.Generate(kind, cfg.N, 42)
			idx := cfg.Build(pts)
			oracle := index.NewLinear(pts)
			runPointQueries(t, idx, pts)
			runWindowQueries(t, cfg, idx, oracle, pts)
			runKNNQueries(t, cfg, idx, oracle, pts)
			runStats(t, idx, pts)
			if cfg.SupportsUpdates {
				runUpdates(t, cfg, idx, oracle, pts)
			}
		})
	}
	if cfg.ExactKNN {
		t.Run("Lattice", func(t *testing.T) { runLatticeKNN(t, cfg) })
	}
}

func runPointQueries(t *testing.T, idx index.Index, pts []geom.Point) {
	t.Helper()
	if idx.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(pts))
	}
	for i, p := range pts {
		if !idx.PointQuery(p) {
			t.Fatalf("false negative: point %d (%v)", i, p)
		}
	}
	for _, p := range []geom.Point{geom.Pt(-1, -1), geom.Pt(2, 0.5), geom.Pt(0.111111117, 0.93333339)} {
		if idx.PointQuery(p) {
			t.Errorf("absent point %v reported found", p)
		}
	}
}

func runWindowQueries(t *testing.T, cfg Config, idx index.Index, oracle *index.Linear, pts []geom.Point) {
	t.Helper()
	ws := workload.Windows(pts, 60, 0.01, 1, 43)
	ws = append(ws, workload.Windows(pts, 20, 0.0004, 4, 44)...)
	// Degenerate windows.
	ws = append(ws,
		geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, // whole space
		geom.NewRect(pts[0], pts[0]),                  // single point
		geom.Rect{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}, // empty region
	)
	var recall float64
	for _, w := range ws {
		got := idx.WindowQuery(w)
		want := oracle.WindowQuery(w)
		for _, p := range got {
			if !w.Contains(p) {
				t.Fatalf("false positive %v for window %v", p, w)
			}
		}
		if cfg.ExactWindow {
			if len(got) != len(want) || index.Recall(got, want) != 1 {
				t.Fatalf("window %v: got %d points, want %d", w, len(got), len(want))
			}
		}
		recall += index.Recall(got, want)
	}
	if !cfg.ExactWindow {
		if avg := recall / float64(len(ws)); avg < cfg.RecallFloor {
			t.Errorf("average window recall = %.3f, want >= %.2f", avg, cfg.RecallFloor)
		}
	}
}

func runKNNQueries(t *testing.T, cfg Config, idx index.Index, oracle *index.Linear, pts []geom.Point) {
	t.Helper()
	qs := workload.KNNPoints(pts, 40, 45)
	var recall float64
	for _, q := range qs {
		for _, k := range []int{1, 10} {
			got := idx.KNN(q, k)
			want := oracle.KNN(q, k)
			if len(got) > k {
				t.Fatalf("kNN returned %d > k=%d points", len(got), k)
			}
			for i := 1; i < len(got); i++ {
				if q.Dist2(got[i-1]) > q.Dist2(got[i]) {
					t.Fatalf("kNN answer not sorted by distance")
				}
			}
			if cfg.ExactKNN {
				// Random coordinates leave no distance ties to break, so
				// an exact answer is the oracle's, point for point.
				if len(got) != len(want) {
					t.Fatalf("kNN size %d, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("kNN(%v, %d) row %d = %v, oracle %v", q, k, i, got[i], want[i])
					}
				}
			}
			if k == 10 {
				recall += index.KNNRecall(got, want, q)
			}
		}
	}
	if !cfg.ExactKNN {
		if avg := recall / float64(len(qs)); avg < cfg.RecallFloor {
			t.Errorf("average kNN recall = %.3f, want >= %.2f", avg, cfg.RecallFloor)
		}
	}
	// Nothing is nearest to a point that is nowhere.
	if got := idx.KNN(geom.Pt(math.NaN(), 0.5), 5); len(got) != 0 {
		t.Errorf("KNN((NaN, 0.5), 5) returned %d points, want none", len(got))
	}
	// k edge cases must not panic or overflow.
	q := geom.Pt(0.5, 0.5)
	if got := idx.KNN(q, 0); len(got) != 0 {
		t.Errorf("KNN(k=0) returned %d points", len(got))
	}
	if got := idx.KNN(q, len(pts)*2); len(got) > len(pts) {
		t.Errorf("KNN(k>n) returned %d points for n=%d", len(got), len(pts))
	}
}

// runLatticeKNN checks exact kNN where distance ties are the rule: 100 × 100
// points on the integer grid, queried at lattice points and at cell centres.
// Equidistant points come back in Point.Less order on every engine, so the
// answer must be the oracle's, point for point.
func runLatticeKNN(t *testing.T, cfg Config) {
	t.Helper()
	const side = 100
	pts := make([]geom.Point, 0, side*side)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	idx := cfg.Build(pts)
	oracle := index.NewLinear(pts)
	rng := rand.New(rand.NewSource(51))
	var qs []geom.Point
	for i := 0; i < 150; i++ {
		x, y := float64(rng.Intn(side)), float64(rng.Intn(side-1))
		qs = append(qs, geom.Pt(x, y), geom.Pt(x+0.5, y+0.5))
	}
	for _, q := range qs {
		for _, k := range []int{1, 4, 9, 25} {
			got, want := idx.KNN(q, k), oracle.KNN(q, k)
			if len(got) != len(want) {
				t.Fatalf("lattice kNN(%v, %d): %d rows, oracle %d", q, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("lattice kNN(%v, %d) row %d at %v, oracle %v", q, k, i, got[i], want[i])
				}
			}
		}
	}
}

func runStats(t *testing.T, idx index.Index, pts []geom.Point) {
	t.Helper()
	s := idx.Stats()
	if s.Name == "" || s.Name != idx.Name() {
		t.Errorf("Stats.Name %q inconsistent with Name() %q", s.Name, idx.Name())
	}
	if s.SizeBytes <= 0 {
		t.Errorf("SizeBytes = %d", s.SizeBytes)
	}
	if s.Height < 1 {
		t.Errorf("Height = %d", s.Height)
	}
	if s.Blocks < 1 {
		t.Errorf("Blocks = %d", s.Blocks)
	}
	// Access counting: queries must count, reset must zero.
	idx.ResetAccesses()
	idx.PointQuery(pts[0])
	if idx.Accesses() < 1 {
		t.Error("PointQuery did not count block accesses")
	}
	idx.ResetAccesses()
	if idx.Accesses() != 0 {
		t.Error("ResetAccesses did not zero the counter")
	}
}

func runUpdates(t *testing.T, cfg Config, idx index.Index, oracle *index.Linear, pts []geom.Point) {
	t.Helper()
	ins := workload.InsertPoints(pts, len(pts)/4, 46)
	for _, p := range ins {
		idx.Insert(p)
		oracle.Insert(p)
	}
	for _, p := range ins {
		if !idx.PointQuery(p) {
			t.Fatalf("inserted point %v not found", p)
		}
	}
	for _, p := range pts[:200] {
		if !idx.PointQuery(p) {
			t.Fatalf("pre-existing point %v lost after inserts", p)
		}
	}
	if idx.Len() != oracle.Len() {
		t.Fatalf("Len after inserts = %d, want %d", idx.Len(), oracle.Len())
	}
	// Windows stay false-positive free (or exact) after inserts.
	for _, w := range workload.Windows(pts, 30, 0.01, 1, 47) {
		got := idx.WindowQuery(w)
		want := oracle.WindowQuery(w)
		for _, p := range got {
			if !w.Contains(p) {
				t.Fatalf("false positive %v after inserts", p)
			}
		}
		if cfg.ExactWindow && (len(got) != len(want) || index.Recall(got, want) != 1) {
			t.Fatalf("window not exact after inserts: %d vs %d", len(got), len(want))
		}
	}
	// Deletions.
	del := workload.DeleteSample(pts, len(pts)/5, 48)
	gone := make(map[geom.Point]struct{}, len(del))
	for _, p := range del {
		if !idx.Delete(p) {
			t.Fatalf("Delete(%v) returned false", p)
		}
		oracle.Delete(p)
		gone[p] = struct{}{}
	}
	if idx.Len() != oracle.Len() {
		t.Fatalf("Len after deletes = %d, want %d", idx.Len(), oracle.Len())
	}
	for _, p := range del[:50] {
		if idx.PointQuery(p) {
			t.Fatalf("deleted point %v still found", p)
		}
		if idx.Delete(p) {
			t.Fatalf("double delete of %v succeeded", p)
		}
	}
	for _, p := range pts[:300] {
		if _, g := gone[p]; g {
			continue
		}
		if !idx.PointQuery(p) {
			t.Fatalf("survivor %v lost after deletes", p)
		}
	}
	// Deleted points never appear in answers.
	for _, w := range workload.Windows(pts, 20, 0.01, 1, 49) {
		for _, p := range idx.WindowQuery(w) {
			if _, g := gone[p]; g {
				t.Fatalf("deleted point %v in window answer", p)
			}
		}
	}
	for _, q := range workload.KNNPoints(pts, 15, 50) {
		for _, p := range idx.KNN(q, 10) {
			if _, g := gone[p]; g {
				t.Fatalf("deleted point %v in kNN answer", p)
			}
		}
	}
}

// SignedZeroCopies returns n shuffled points in the unit square that are
// full of ties which differ in their bits: (−0, y) beside (+0, y), (x, −0)
// beside (x, +0), and exact copies. −0 == +0, so a ranking ties such a pair
// on both coordinates and breaks the tie by position; an index that keeps
// the bits it was given lays the pair out by that position. A quarter of
// the coordinates are zero, the rest on a 1/32 lattice, so equal x and
// equal y are common too.
func SignedZeroCopies(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	coord := func() float64 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return float64(rng.Intn(33)) / 32
	}
	flip := func(c float64) float64 {
		if c == 0 && rng.Intn(2) == 0 {
			return negZero
		}
		return c
	}
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		p := geom.Pt(flip(coord()), flip(coord()))
		pts = append(pts, p)
		switch rng.Intn(4) {
		case 0: // the same point with the other zero
			q := p
			if q.X == 0 {
				q.X = math.Copysign(0, -math.Copysign(1, q.X))
			}
			if q.Y == 0 {
				q.Y = math.Copysign(0, -math.Copysign(1, q.Y))
			}
			pts = append(pts, q)
		case 1: // an exact copy
			pts = append(pts, p)
		}
	}
	pts = pts[:n]
	rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}
