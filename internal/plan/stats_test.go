package plan

// Deterministic planner tests: models are seeded explicitly through
// NewStatsFromModels, so routing decisions depend only on the cost
// arithmetic — no wall-clock calibration, no flakiness.

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"rsmi/internal/geom"
)

// seededStats models the PR 5 measurement: the learned index ("RSMI")
// answers small windows cheaply but pays per row; the baseline ("RR*")
// has a high fixed cost but scans rows almost for free.
func seededStats() *Stats {
	return NewStatsFromModels(100000, map[string]Model{
		"RSMI": {PointUS: 1, WindowBaseUS: 10, WindowPerRowUS: 5, KNNBaseUS: 20, KNNPerKUS: 0.5},
		"RR*":  {PointUS: 4, WindowBaseUS: 200, WindowPerRowUS: 0.1, KNNBaseUS: 100, KNNPerKUS: 5},
	})
}

func TestChooseRoutesBySelectivity(t *testing.T) {
	s := seededStats()

	// A tiny window selects a handful of rows: the learned index's low
	// base cost wins.
	tiny := Query{Kind: KindWindow, Window: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.501, MaxY: 0.501}}
	pl := s.Choose(tiny)
	if pl.Backend != "RSMI" {
		t.Fatalf("tiny window routed to %q, want RSMI", pl.Backend)
	}
	if pl.EstRows > 1 {
		t.Fatalf("tiny window estimated %f rows, want ~0.1", pl.EstRows)
	}

	// A huge window selects tens of thousands of rows: per-row cost
	// dominates and the baseline wins.
	huge := Query{Kind: KindWindow, Window: geom.Rect{MinX: 0, MinY: 0, MaxX: 0.7, MaxY: 0.7}}
	pl = s.Choose(huge)
	if pl.Backend != "RR*" {
		t.Fatalf("huge window routed to %q, want RR*", pl.Backend)
	}
	if pl.EstRows < 10000 {
		t.Fatalf("huge window estimated %f rows, want tens of thousands", pl.EstRows)
	}

	// Crossover sanity: the estimated costs actually order the way the
	// routing implies.
	if rsmiM, _ := s.Model("RSMI"); rsmiM.WindowBaseUS+rsmiM.WindowPerRowUS*pl.EstRows <= pl.EstCostUS {
		t.Fatalf("RSMI cost %f should exceed the chosen estimate %f on the huge window",
			rsmiM.WindowBaseUS+rsmiM.WindowPerRowUS*pl.EstRows, pl.EstCostUS)
	}

	// Point probes and small-k kNN go to the learned index; large-k kNN
	// crosses over to the baseline (20 + 0.5k vs 100 + 5k never crosses
	// — RSMI is cheaper at every k here, so both stay on RSMI).
	if pl := s.Choose(Query{Kind: KindPoint, Point: geom.Pt(0.5, 0.5)}); pl.Backend != "RSMI" {
		t.Fatalf("point probe routed to %q, want RSMI", pl.Backend)
	}
	if pl := s.Choose(Query{Kind: KindKNN, Point: geom.Pt(0.5, 0.5), K: 10}); pl.Backend != "RSMI" {
		t.Fatalf("kNN routed to %q, want RSMI", pl.Backend)
	}
}

func TestChooseCountersAndRouting(t *testing.T) {
	s := seededStats()
	tiny := Query{Kind: KindWindow, Window: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.501, MaxY: 0.501}}
	huge := Query{Kind: KindWindow, Window: geom.Rect{MinX: 0, MinY: 0, MaxX: 0.7, MaxY: 0.7}}
	for i := 0; i < 3; i++ {
		s.Choose(tiny)
	}
	for i := 0; i < 2; i++ {
		s.Choose(huge)
	}
	c := s.Counters()
	if c.Planned != 5 {
		t.Fatalf("Planned = %d, want 5", c.Planned)
	}
	if c.Routed["RSMI"] != 3 || c.Routed["RR*"] != 2 {
		t.Fatalf("Routed = %v, want RSMI:3 RR*:2", c.Routed)
	}
}

// Observe must adapt routing between near-tied backends: when the
// chosen backend keeps costing more than estimated, its EWMA
// correction grows until the runner-up wins the same query. The
// models here sit ~1.25× apart — inside the [adjMin, adjMax] trim
// range, which is exactly the regime the corrections exist for
// (calibration noise between closely-priced backends).
func TestObserveFlipsRouting(t *testing.T) {
	s := NewStatsFromModels(100000, map[string]Model{
		"A": {PointUS: 1, WindowBaseUS: 10, WindowPerRowUS: 1, KNNBaseUS: 20, KNNPerKUS: 0.5},
		"B": {PointUS: 2, WindowBaseUS: 15, WindowPerRowUS: 1, KNNBaseUS: 30, KNNPerKUS: 0.5},
	})
	q := Query{Kind: KindWindow, Window: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.51, MaxY: 0.51}}
	pl := s.Choose(q)
	if pl.Backend != "A" {
		t.Fatalf("initial routing to %q, want A", pl.Backend)
	}
	// Keep reporting 100× the estimate; A's correction climbs toward the
	// clamp, which is more than enough to push it past B here.
	for i := 0; i < 2000; i++ {
		pl = s.Choose(q)
		if pl.Backend != "A" {
			break
		}
		s.Observe(pl, q, pl.EstCostUS*100)
	}
	if pl = s.Choose(q); pl.Backend != "B" {
		t.Fatalf("after sustained mispredictions the query still routes to %q, want B", pl.Backend)
	}
	c := s.Counters()
	if c.Mispredicts == 0 {
		t.Fatalf("100x-off observations counted no mispredictions")
	}
}

// Corrections are a trim knob, not a steering wheel: across a model
// gap wider than adjMax·(1/adjMin), no amount of observed overrun may
// re-route the query. Observations are wall-clock on a shared machine
// and only the routed backend is ever observed, so letting them cross
// large gaps turns transient load into permanent mis-routing (gross
// regime change is recalibration's job).
func TestObserveNeverCrossesWideGaps(t *testing.T) {
	s := seededStats()
	// Window 0.01² over n=100k uniform → ~10 rows: RSMI ≈ 60µs,
	// RR* ≈ 201µs — a 3.35× gap, beyond the trim range.
	q := Query{Kind: KindWindow, Window: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.51, MaxY: 0.51}}
	for i := 0; i < 5000; i++ {
		pl := s.Choose(q)
		if pl.Backend != "RSMI" {
			t.Fatalf("observation %d re-routed across a >%gx model gap to %q",
				i, float64(adjMax)/adjMin, pl.Backend)
		}
		s.Observe(pl, q, pl.EstCostUS*1e6)
	}
}

func TestObserveBounds(t *testing.T) {
	s := seededStats()
	q := Query{Kind: KindPoint, Point: geom.Pt(0.5, 0.5)}
	pl := s.Choose(q)
	base := pl.EstCostUS

	// Accurate observations are not mispredictions and barely move the
	// estimate.
	s.Observe(pl, q, pl.EstCostUS)
	if c := s.Counters(); c.Mispredicts != 0 {
		t.Fatalf("an exact observation counted as a misprediction")
	}
	if got := s.Choose(q).EstCostUS; math.Abs(got-base)/base > 1e-9 {
		t.Fatalf("exact observation moved the estimate %f -> %f", base, got)
	}

	// The correction factor clamps at adjMax no matter how wild the
	// observations are.
	for i := 0; i < 1000; i++ {
		pl = s.Choose(q)
		s.Observe(pl, q, pl.EstCostUS*1e6)
	}
	if got := s.Choose(q).EstCostUS; got > base*adjMax*1.01 {
		t.Fatalf("correction exceeded the %gx clamp: %f vs base %f", float64(adjMax), got, base)
	}
}

func TestSelectivityEstimator(t *testing.T) {
	// A uniform grid of points: the marginal-CDF product should estimate
	// the area fraction closely.
	var pts []geom.Point
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			pts = append(pts, geom.Pt((float64(i)+0.5)/64, (float64(j)+0.5)/64))
		}
	}
	s := NewStats(pts)
	for _, tc := range []struct {
		r    geom.Rect
		want float64
	}{
		{geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 1},
		{geom.Rect{MinX: 0, MinY: 0, MaxX: 0.5, MaxY: 0.5}, 0.25},
		{geom.Rect{MinX: 0.25, MinY: 0.25, MaxX: 0.75, MaxY: 0.75}, 0.25},
		{geom.Rect{MinX: 0.4, MinY: 0, MaxX: 0.6, MaxY: 1}, 0.2},
	} {
		got := s.Selectivity(tc.r)
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("Selectivity(%+v) = %f, want ~%f", tc.r, got, tc.want)
		}
	}
	if rows := s.EstRows(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); math.Abs(rows-float64(len(pts))) > float64(len(pts))/10 {
		t.Errorf("EstRows(full space) = %f, want ~%d", rows, len(pts))
	}
}

func TestChooseWithoutModels(t *testing.T) {
	s := NewStats([]geom.Point{geom.Pt(0.1, 0.1), geom.Pt(0.9, 0.9)})
	pl := s.Choose(Query{Kind: KindPoint, Point: geom.Pt(0.1, 0.1)})
	if pl != (Plan{}) {
		t.Fatalf("uncalibrated Choose = %+v, want empty fallback plan", pl)
	}
}

// TestProbeDurScalesWithCost pins the calibration probe budget: a cell
// whose calls are expensive (a large-k kNN batch) gets a longer
// measurement window than a cheap cell (a point batch), bounded by the
// floor and cap. The old fixed window handed every cell the same clock
// regardless of per-call cost, so expensive cells fitted only a
// handful of calls and their fitted ordering was a coin flip.
func TestProbeDurScalesWithCost(t *testing.T) {
	pointCell := probeDur(50 * time.Microsecond)
	knnCell := probeDur(10 * time.Millisecond)
	if pointCell != calProbeDur {
		t.Errorf("probeDur(cheap point cell) = %v, want the %v floor", pointCell, calProbeDur)
	}
	if knnCell <= pointCell {
		t.Errorf("probeDur(expensive kNN cell) = %v, not above the point cell's %v", knnCell, pointCell)
	}
	if want := 10 * time.Millisecond * calProbeMinCalls / calWorkers; knnCell != want {
		t.Errorf("probeDur(10ms) = %v, want %v (fits %d calls across %d workers)", knnCell, want, calProbeMinCalls, calWorkers)
	}
	if d := probeDur(time.Second); d != calProbeMaxDur {
		t.Errorf("probeDur(1s) = %v, want the %v cap", d, calProbeMaxDur)
	}
	if d := probeDur(0); d != calProbeDur {
		t.Errorf("probeDur(0) = %v, want the %v floor", d, calProbeDur)
	}
}

// TestRunProbesStretchesForExpensiveCalls is the integration half: a
// probe costing ~5ms per call must hold the measurement window open
// well past the floor (its window is sized to fit calProbeMinCalls),
// and every worker must complete at least one timed call.
func TestRunProbesStretchesForExpensiveCalls(t *testing.T) {
	perCall := 5 * time.Millisecond
	var calls atomic.Int64
	start := time.Now()
	us, _, err := runProbes(1, func() (int, error) {
		calls.Add(1)
		time.Sleep(perCall)
		return 0, nil
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("runProbes: %v", err)
	}
	// Window = perCall·calProbeMinCalls/calWorkers = 30ms here; sleeps
	// only ever overrun, so elapsed is a reliable lower bound.
	if want := perCall * calProbeMinCalls / calWorkers; elapsed < want {
		t.Errorf("expensive probe ran %v, want at least its %v scaled window (floor is %v)", elapsed, want, calProbeDur)
	}
	// Warm-up plus one unconditional timed call per worker.
	if n := calls.Load(); n < calWorkers+1 {
		t.Errorf("probe ran %d times, want at least %d", n, calWorkers+1)
	}
	if us <= 0 {
		t.Errorf("usPerQuery = %v, want > 0", us)
	}
}
