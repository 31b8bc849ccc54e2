package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
)

func TestRecall(t *testing.T) {
	a, b, c := geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)
	tests := []struct {
		name      string
		got, want []geom.Point
		expect    float64
	}{
		{"perfect", []geom.Point{a, b}, []geom.Point{a, b}, 1},
		{"half", []geom.Point{a}, []geom.Point{a, b}, 0.5},
		{"zero", []geom.Point{c}, []geom.Point{a, b}, 0},
		{"empty want", []geom.Point{a}, nil, 1},
		{"empty got", nil, []geom.Point{a}, 0},
		{"duplicates counted once", []geom.Point{a, a}, []geom.Point{a, b}, 0.5},
		{"superset", []geom.Point{a, b, c}, []geom.Point{a, b}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Recall(tc.got, tc.want); got != tc.expect {
				t.Errorf("Recall = %v, want %v", got, tc.expect)
			}
		})
	}
}

func TestKNNRecall(t *testing.T) {
	q := geom.Pt(0, 0)
	near, mid, far := geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)
	want := []geom.Point{near, mid}
	if r := KNNRecall([]geom.Point{near, mid}, want, q); r != 1 {
		t.Errorf("exact kNN recall = %v", r)
	}
	if r := KNNRecall([]geom.Point{near, far}, want, q); r != 0.5 {
		t.Errorf("half kNN recall = %v", r)
	}
	// A same-distance substitute counts as correct (tie tolerance).
	tie := geom.Pt(0, 2)
	if r := KNNRecall([]geom.Point{near, tie}, want, q); r != 1 {
		t.Errorf("tie kNN recall = %v, want 1", r)
	}
	if r := KNNRecall(nil, nil, q); r != 1 {
		t.Errorf("empty kNN recall = %v", r)
	}
	// Extra results beyond k are ignored.
	if r := KNNRecall([]geom.Point{near, mid, far}, want, q); r != 1 {
		t.Errorf("overlong kNN recall = %v", r)
	}
}

func TestSortByDistance(t *testing.T) {
	q := geom.Pt(0, 0)
	pts := []geom.Point{{X: 3, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	SortByDistance(pts, q)
	if pts[0].X != 1 || pts[1].X != 2 || pts[2].X != 3 {
		t.Errorf("sorted order wrong: %v", pts)
	}
	// Determinism under ties.
	ties := []geom.Point{{X: 0, Y: 1}, {X: 1, Y: 0}, {X: -1, Y: 0}}
	SortByDistance(ties, q)
	if !(ties[0] == geom.Pt(-1, 0) && ties[1] == geom.Pt(0, 1) && ties[2] == geom.Pt(1, 0)) {
		t.Errorf("tie order not canonical: %v", ties)
	}
}

func TestLinearPointQuery(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 500, 1)
	l := NewLinear(pts)
	if l.Len() != 500 {
		t.Fatalf("Len = %d", l.Len())
	}
	for _, p := range pts[:50] {
		if !l.PointQuery(p) {
			t.Fatalf("indexed point %v not found", p)
		}
	}
	if l.PointQuery(geom.Pt(-1, -1)) {
		t.Error("absent point reported found")
	}
}

func TestLinearWindowQuery(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 2000, 2)
	l := NewLinear(pts)
	w := geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.4, MaxY: 0.5}
	got := l.WindowQuery(w)
	count := 0
	for _, p := range pts {
		if w.Contains(p) {
			count++
		}
	}
	if len(got) != count {
		t.Errorf("window returned %d, want %d", len(got), count)
	}
	for _, p := range got {
		if !w.Contains(p) {
			t.Errorf("false positive %v", p)
		}
	}
}

func TestLinearKNN(t *testing.T) {
	pts := dataset.Generate(dataset.Normal, 1000, 3)
	l := NewLinear(pts)
	q := geom.Pt(0.5, 0.5)
	got := l.KNN(q, 10)
	if len(got) != 10 {
		t.Fatalf("kNN returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if q.Dist2(got[i-1]) > q.Dist2(got[i]) {
			t.Fatalf("kNN not sorted at %d", i)
		}
	}
	// No indexed point may be closer than the k-th result.
	kth := q.Dist2(got[9])
	closer := 0
	for _, p := range pts {
		if q.Dist2(p) < kth {
			closer++
		}
	}
	if closer > 9 {
		t.Errorf("%d points closer than k-th result", closer)
	}
	if got := l.KNN(q, 0); got != nil {
		t.Error("k=0 must return nil")
	}
	if got := l.KNN(geom.Pt(math.NaN(), 0.5), 5); got != nil {
		t.Errorf("KNN((NaN, 0.5), 5) returned %d points, want nil", len(got))
	}
	if got := l.KNN(q, 5000); len(got) != 1000 {
		t.Errorf("k>n returned %d", len(got))
	}
}

// sortedKNN is the Linear.KNN this package had before its bounded
// selection: copy every point, sort by distance, keep the first k. It is the
// reference the selection must equal.
func sortedKNN(pts []geom.Point, q geom.Point, k int) []geom.Point {
	if k <= 0 {
		return nil
	}
	cand := append([]geom.Point(nil), pts...)
	SortByDistance(cand, q)
	if k > len(cand) {
		k = len(cand)
	}
	return cand[:k]
}

// TestLinearKNNMatchesSort: the bounded selection answers exactly what the
// full sort did, point for point and in the same order, on a grid where
// equal distances are the rule, with repeated points, at k = 0, 1, 25, n
// and n+1.
func TestLinearKNNMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var pts []geom.Point
	for i := 0; i < 400; i++ {
		pts = append(pts, geom.Pt(float64(rng.Intn(9))/8, float64(rng.Intn(9))/8))
	}
	pts = append(pts, pts[:40]...)
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Pt(rng.Float64(), rng.Float64()))
	}
	l := NewLinear(pts)
	n := len(pts)
	queries := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(0, 0), geom.Pt(0.25, 0.75), geom.Pt(-3, 2)}
	for i := 0; i < 20; i++ {
		queries = append(queries, geom.Pt(float64(rng.Intn(17))/16, float64(rng.Intn(17))/16))
	}
	for _, q := range queries {
		for _, k := range []int{0, 1, 25, n, n + 1} {
			got, want := l.KNN(q, k), sortedKNN(pts, q, k)
			if len(got) != len(want) || (got == nil) != (want == nil) {
				t.Fatalf("q=%v k=%d: %d points (nil %v), want %d (nil %v)", q, k, len(got), got == nil, len(want), want == nil)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%v k=%d rank %d: %v, want %v", q, k, i, got[i], want[i])
				}
			}
		}
	}
	if got := NewLinear(nil).KNN(geom.Pt(0, 0), 3); got != nil {
		t.Errorf("kNN over no points = %#v, want nil as the sort gave", got)
	}
}

// BenchmarkLinearKNN is the oracle's kNN over 100k points, the cost every
// recall measurement pays per query.
func BenchmarkLinearKNN(b *testing.B) {
	l := NewLinear(dataset.Generate(dataset.Skewed, 100_000, 7))
	for _, k := range []int{1, 25, 625} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := geom.Pt(0.5, 0.5)
			for i := 0; i < b.N; i++ {
				if got := l.KNN(q, k); len(got) != k {
					b.Fatalf("%d points, want %d", len(got), k)
				}
			}
		})
	}
}

func TestLinearInsertDelete(t *testing.T) {
	l := NewLinear(nil)
	p := geom.Pt(0.5, 0.5)
	l.Insert(p)
	l.Insert(p) // duplicate insert is a no-op
	if l.Len() != 1 {
		t.Fatalf("Len after dup insert = %d", l.Len())
	}
	if !l.PointQuery(p) {
		t.Error("inserted point not found")
	}
	if !l.Delete(p) {
		t.Error("Delete returned false")
	}
	if l.Delete(p) {
		t.Error("double Delete returned true")
	}
	if l.Len() != 0 || l.PointQuery(p) {
		t.Error("point still present after delete")
	}
}

func TestLinearDeleteKeepsOthersFindable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pts []geom.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Pt(rng.Float64(), rng.Float64()))
	}
	l := NewLinear(pts)
	for i := 0; i < 100; i++ {
		if !l.Delete(pts[i]) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 100; i < 200; i++ {
		if !l.PointQuery(pts[i]) {
			t.Fatalf("survivor %d lost", i)
		}
	}
	if l.Len() != 100 {
		t.Errorf("Len = %d, want 100", l.Len())
	}
}

func TestLinearStats(t *testing.T) {
	l := NewLinear(dataset.Generate(dataset.Uniform, 100, 5))
	s := l.Stats()
	if s.Name != "Linear" || s.SizeBytes != 1600 {
		t.Errorf("Stats = %+v", s)
	}
	if l.Accesses() != 0 {
		t.Error("Linear has no block accesses")
	}
	l.ResetAccesses() // must not panic
}
