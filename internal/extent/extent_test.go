package extent

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rsmi/internal/core"
	"rsmi/internal/geom"
)

func testOptions() core.Options {
	return core.Options{
		BlockCapacity:      20,
		PartitionThreshold: 500,
		Epochs:             30,
		Seed:               1,
	}
}

// randomRects generates n rectangles with centres following a skewed
// distribution and bounded extents.
func randomRects(n int, maxExtent float64, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		cx, cy := rng.Float64(), rng.Float64()*rng.Float64()
		w, h := rng.Float64()*maxExtent, rng.Float64()*maxExtent
		out = append(out, geom.Rect{
			MinX: cx - w/2, MinY: cy - h/2,
			MaxX: cx + w/2, MaxY: cy + h/2,
		})
	}
	return out
}

// bruteWindow is the oracle for rectangle intersection queries.
func bruteWindow(rects []geom.Rect, q geom.Rect) []geom.Rect {
	var out []geom.Rect
	for _, r := range rects {
		if r.Intersects(q) {
			out = append(out, r)
		}
	}
	return out
}

func sortRects(rs []geom.Rect) {
	sort.Slice(rs, func(i, j int) bool { return lessRect(rs[i], rs[j]) })
}

func TestExactWindowMatchesBruteForce(t *testing.T) {
	rects := randomRects(2000, 0.02, 1)
	idx := New(rects, testOptions())
	if idx.Len() != 2000 {
		t.Fatalf("Len = %d", idx.Len())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		q := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), 0.05, 0.08)
		got := idx.ExactWindow(q)
		want := bruteWindow(rects, q)
		if len(got) != len(want) {
			t.Fatalf("window %v: got %d, want %d", q, len(got), len(want))
		}
		sortRects(got)
		sortRects(want)
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("window %v: mismatch at %d", q, j)
			}
		}
	}
}

func TestWindowNoFalsePositives(t *testing.T) {
	rects := randomRects(2000, 0.03, 3)
	idx := New(rects, testOptions())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		q := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), 0.04, 0.04)
		for _, r := range idx.ExactWindow(q) {
			if !r.Intersects(q) {
				t.Fatalf("false positive %v for %v", r, q)
			}
		}
	}
}

func TestWindowRecall(t *testing.T) {
	rects := randomRects(3000, 0.02, 5)
	idx := New(rects, testOptions())
	rng := rand.New(rand.NewSource(6))
	var want int
	for i := 0; i < 80; i++ {
		q := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()*rng.Float64()), 0.06, 0.06)
		got, truth := len(idx.ExactWindow(q)), len(bruteWindow(rects, q))
		if got != truth {
			t.Fatalf("window %v: %d rectangles, brute force %d", q, got, truth)
		}
		want += truth
	}
	if want == 0 {
		t.Skip("degenerate workload")
	}
}

func TestStabQuery(t *testing.T) {
	rects := []geom.Rect{
		{MinX: 0.1, MinY: 0.1, MaxX: 0.4, MaxY: 0.4},
		{MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6},
		{MinX: 0.7, MinY: 0.7, MaxX: 0.9, MaxY: 0.9},
	}
	idx := New(rects, testOptions())
	got := idx.StabQuery(geom.Pt(0.35, 0.35))
	if len(got) != 2 {
		t.Fatalf("stab returned %d rects, want 2", len(got))
	}
	if got := idx.StabQuery(geom.Pt(0.65, 0.1)); len(got) != 0 {
		t.Fatalf("stab in empty region returned %d", len(got))
	}
}

func TestExactKNNMatchesBruteForce(t *testing.T) {
	rects := randomRects(1500, 0.02, 7)
	idx := New(rects, testOptions())
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		q := geom.Pt(rng.Float64(), rng.Float64())
		for _, k := range []int{1, 5, 20} {
			got := idx.ExactKNN(q, k)
			want := append([]geom.Rect(nil), rects...)
			sort.Slice(want, func(a, b int) bool {
				da, db := want[a].MinDist2(q), want[b].MinDist2(q)
				if da != db {
					return da < db
				}
				return lessRect(want[a], want[b])
			})
			want = want[:k]
			if len(got) != k {
				t.Fatalf("ExactKNN returned %d, want %d", len(got), k)
			}
			for j := range got {
				if got[j].MinDist2(q) != want[j].MinDist2(q) {
					t.Fatalf("ExactKNN distance mismatch at %d: %v vs %v",
						j, got[j].MinDist2(q), want[j].MinDist2(q))
				}
			}
		}
	}
}

func TestKNNApproximateQuality(t *testing.T) {
	rects := randomRects(2000, 0.02, 9)
	idx := New(rects, testOptions())
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 40; i++ {
		q := geom.Pt(rng.Float64(), rng.Float64()*rng.Float64())
		got := idx.ExactKNN(q, 10)
		if len(got) != 10 {
			t.Fatalf("ExactKNN returned %d", len(got))
		}
		// Sortedness.
		for j := 1; j < len(got); j++ {
			if got[j-1].MinDist2(q) > got[j].MinDist2(q) {
				t.Fatal("ExactKNN result not sorted by MINDIST")
			}
		}
		dists := make([]float64, len(rects))
		for j, r := range rects {
			dists[j] = r.MinDist2(q)
		}
		sort.Float64s(dists)
		if kth := got[len(got)-1].MinDist2(q); kth != dists[9] {
			t.Fatalf("ExactKNN's 10th rectangle at MINDIST² %v, brute force %v", kth, dists[9])
		}
	}
}

func TestInsertDelete(t *testing.T) {
	rects := randomRects(800, 0.02, 11)
	idx := New(rects[:400], testOptions())
	for _, r := range rects[400:] {
		idx.Insert(r)
	}
	if idx.Len() != 800 {
		t.Fatalf("Len = %d", idx.Len())
	}
	q := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	if got := idx.ExactWindow(q); len(got) < 790 {
		// A few rects may straddle the unit square edge; all should
		// intersect it regardless.
		t.Errorf("full-space window found %d of 800", len(got))
	}
	for _, r := range rects[:100] {
		if !idx.Delete(r) {
			t.Fatalf("Delete(%v) failed", r)
		}
	}
	if idx.Len() != 700 {
		t.Fatalf("Len after deletes = %d", idx.Len())
	}
	if idx.Delete(geom.Rect{MinX: 5, MinY: 5, MaxX: 6, MaxY: 6}) {
		t.Error("deleted absent rect")
	}
	// Deleted rectangles never reappear.
	got := idx.ExactWindow(q)
	gone := make(map[geom.Rect]int)
	for _, r := range rects[:100] {
		gone[r]++
	}
	for _, r := range got {
		if gone[r] > 0 {
			// Duplicates are possible in the generator; only flag if more
			// copies are returned than remain.
			gone[r]--
			count := 0
			for _, o := range rects {
				if o == r {
					count++
				}
			}
			if count < 2 {
				t.Fatalf("deleted rect %v still returned", r)
			}
		}
	}
}

func TestSharedCentres(t *testing.T) {
	// Two different rectangles with the same centre must both be indexed
	// and independently deletable.
	a := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.6, MaxY: 0.6}
	b := geom.Rect{MinX: 0.45, MinY: 0.3, MaxX: 0.55, MaxY: 0.7}
	idx := New([]geom.Rect{a, b}, testOptions())
	if idx.Len() != 2 {
		t.Fatalf("Len = %d", idx.Len())
	}
	got := idx.ExactWindow(geom.Rect{MinX: 0.39, MinY: 0.39, MaxX: 0.41, MaxY: 0.41})
	if len(got) != 1 || got[0] != a {
		t.Fatalf("corner window = %v", got)
	}
	if !idx.Delete(a) || idx.Len() != 1 {
		t.Fatal("delete of shared-centre rect failed")
	}
	if got := idx.StabQuery(geom.Pt(0.5, 0.5)); len(got) != 1 || got[0] != b {
		t.Fatalf("survivor lost: %v", got)
	}
}

func TestExpansionOverhead(t *testing.T) {
	small := New(randomRects(100, 0.001, 12), testOptions())
	big := New(randomRects(100, 0.2, 13), testOptions())
	if so, bo := small.ExpansionOverhead(0.1, 0.1), big.ExpansionOverhead(0.1, 0.1); so >= bo {
		t.Errorf("overhead must grow with object size: %v vs %v", so, bo)
	}
	if o := small.ExpansionOverhead(0, 0.1); o != 1 {
		t.Errorf("degenerate window overhead = %v", o)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	idx := New(nil, testOptions())
	if idx.Len() != 0 {
		t.Error("empty index Len != 0")
	}
	if got := idx.ExactWindow(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); len(got) != 0 {
		t.Error("empty index window returned rects")
	}
	if got := idx.ExactKNN(geom.Pt(0.5, 0.5), 3); got != nil {
		t.Error("empty index kNN returned rects")
	}
	// Empty rectangles are ignored.
	idx.Insert(geom.EmptyRect())
	if idx.Len() != 0 {
		t.Error("empty rect was indexed")
	}
	// Point rectangles are fine.
	idx.Insert(geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5})
	if got := idx.StabQuery(geom.Pt(0.5, 0.5)); len(got) != 1 {
		t.Errorf("point rect not stabbed: %v", got)
	}
}

// Property: the expanded-window candidate set always covers the true
// answer — the correctness core of query expansion [44, 48].
func TestExpansionCoversProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rects := randomRects(200+rng.Intn(300), 0.05*rng.Float64(), seed)
		idx := New(rects, testOptions())
		for i := 0; i < 10; i++ {
			q := geom.RectAround(geom.Pt(rng.Float64(), rng.Float64()), 0.1*rng.Float64(), 0.1*rng.Float64())
			want := bruteWindow(rects, q)
			got := idx.ExactWindow(q)
			if len(got) != len(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
