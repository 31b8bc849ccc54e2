package main

import (
	"context"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
)

func TestOracleCatchesWrongRows(t *testing.T) {
	a, b, c := geom.Pt(0.1, 0.1), geom.Pt(0.2, 0.2), geom.Pt(0.9, 0.9)
	or := newOracle([]geom.Point{a, b, c})
	r := geom.NewRect(geom.Pt(0, 0), geom.Pt(0.5, 0.5))
	for name, tc := range map[string]struct {
		err  error
		fail bool
	}{
		"window ok":          {or.window(r, []geom.Point{a, b}), false},
		"window empty":       {or.window(r, nil), false},
		"window outside":     {or.window(r, []geom.Point{a, c}), true},
		"window not live":    {or.window(r, []geom.Point{geom.Pt(0.3, 0.3)}), true},
		"window duplicate":   {or.window(r, []geom.Point{a, a}), true},
		"knn ok":             {or.knn(a, 2, []geom.Point{a, b}), false},
		"knn too many":       {or.knn(a, 1, []geom.Point{a, b}), true},
		"knn out of order":   {or.knn(a, 3, []geom.Point{b, a}), true},
		"knn not live":       {or.knn(a, 3, []geom.Point{geom.Pt(0.11, 0.1)}), true},
		"probe as expected":  {or.check(op{kind: opPoint, want: true}, nil, true), false},
		"probe false hit":    {or.check(op{kind: opPoint}, nil, true), true},
		"probe missed":       {or.check(op{kind: opPoint, want: true}, nil, false), true},
		"delete found none":  {or.check(op{kind: opDelete, p: c, want: true}, nil, false), true},
		"insert was refused": {or.check(op{kind: opInsert, p: geom.Pt(0.4, 0.4)}, nil, false), true},
	} {
		if (tc.err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v", name, tc.err, tc.fail)
		}
	}
	// The two writes above were applied to the oracle.
	if err := or.window(r, []geom.Point{geom.Pt(0.4, 0.4)}); err != nil {
		t.Errorf("inserted point is not live: %v", err)
	}
	if err := or.rows([]geom.Point{c}); err == nil {
		t.Error("deleted point is still live")
	}
}

func TestExactComparisons(t *testing.T) {
	a, b, c := geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 0)
	if !sameSet([]geom.Point{a, b, c}, []geom.Point{c, a, b}) || sameSet([]geom.Point{a, b}, []geom.Point{a, c}) || sameSet([]geom.Point{a}, []geom.Point{a, a}) {
		t.Error("sameSet")
	}
	q := geom.Pt(0, 0)
	// b and c are equidistant from q: either order is as good.
	if !sameDistances(q, []geom.Point{a, b}, []geom.Point{a, c}) || sameDistances(q, []geom.Point{a, b}, []geom.Point{b, a}) {
		t.Error("sameDistances")
	}
	live := []geom.Point{a, b, c, geom.Pt(2, 2)}
	if got := bruteKNN(live, q, 3); !sameDistances(q, got, []geom.Point{a, b, c}) {
		t.Errorf("bruteKNN = %v", got)
	}
	if got := bruteWindow(live, geom.NewRect(a, geom.Pt(1, 1))); !sameSet(got, []geom.Point{a, b, c}) {
		t.Errorf("bruteWindow = %v", got)
	}
}

// lossy is an engine with a deliberate defect: its window answers include a
// point that was never indexed. The checked pass must count it.
type lossy struct{ rsmi.Engine }

func (l lossy) WindowQueryAppend(ctx context.Context, dst []rsmi.Point, q rsmi.Rect) ([]rsmi.Point, error) {
	dst, err := l.Engine.WindowQueryAppend(ctx, dst, q)
	return append(dst, geom.Pt(q.MaxX+1, q.MaxY+1)), err
}

func TestCheckedPassFailsABrokenEngine(t *testing.T) {
	sp, _ := specByName("embed-read")
	sp = sp.sized(true)
	tp := buildTapes(dataset.Skewed, sp.sz, 1)
	eng := buildEngine(tp.data, 1)
	ctx := context.Background()

	good, bad := &checker{}, &checker{}
	pl := newSchedule(cWindow, tp.class[cWindow], 1)
	pl.checked(ctx, engineTarget{eng}, newOracle(tp.data), good)
	if _, failed := good.totals(); failed != 0 {
		t.Fatalf("a sound engine failed %d checks: %v", failed, good.first)
	}
	pl.checked(ctx, engineTarget{lossy{eng}}, newOracle(tp.data), bad)
	if attempted, failed := bad.totals(); failed == 0 || failed > attempted {
		t.Fatalf("a broken engine failed %d of %d checks", failed, attempted)
	}

	// The timed loops compare with the checked pass: a sound engine's
	// answers no longer match what the broken one recorded.
	replay := &checker{}
	pl.play(ctx, engineTarget{eng}, 1, newTimings(pl.requests()), replay)
	if _, failed := replay.totals(); failed == 0 {
		t.Fatal("the fingerprint comparison let a changed answer through")
	}
}
