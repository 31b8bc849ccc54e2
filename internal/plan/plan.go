// Package plan is the cost-based query planner above the multi-backend
// rsmi.Engine surface. PR 5's measured finding — baselines out-serve
// RSMI 2.6–3.9× on batched window wall-clock while RSMI wins on block
// accesses — means no fixed backend choice is right for every query;
// "The Case for Learned Spatial Indexes" and "Evaluating Learned
// Spatial Indexes" (PAPERS.md) show the crossover is workload-dependent.
// This package makes the choice per query:
//
//   - Stats holds per-backend cost models calibrated from micro-probes
//     at startup (Calibrate runs a small query grid and fits
//     cost = f(selectivity, k)), refreshed online from observed per-op
//     latencies, plus a selectivity estimator over the rank-space CDF
//     (internal/cdf — the same piecewise-linear model family RSMI itself
//     learns).
//   - A Query (point / window / kNN, optional distance ordering and
//     LIMIT) is planned into a Plan{Backend, EstCost, EstRows}
//     and executed; estimated vs actual cost rides the EXPLAIN trace so
//     mispredictions are observable.
//   - MultiEngine implements the full rsmi.Engine over several backends
//     sharing one logical point set, routing every query through the
//     planner — the engine `rsmi-serve -planner` serves.
//
// internal/sqlfe parses the spatial SQL dialect into Query values.
package plan

import (
	"context"
	"fmt"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/index"
)

// Kind is the shape of a planned query.
type Kind uint8

const (
	// KindPoint is an exact-match probe: does the point exist?
	KindPoint Kind = iota
	// KindWindow is a range query over an axis-aligned rectangle,
	// optionally distance-ordered and LIMIT-truncated.
	KindWindow
	// KindKNN is a k-nearest-neighbour query around Point.
	KindKNN
)

// String names the kind as it appears in plans and traces.
func (k Kind) String() string {
	switch k {
	case KindPoint:
		return "point"
	case KindWindow:
		return "window"
	case KindKNN:
		return "knn"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Query is one planner-level query: the logical operation the SQL
// front-end (internal/sqlfe) or a caller hands the planner, independent
// of which backend executes it.
type Query struct {
	Kind Kind
	// Point is the probe point (KindPoint), the kNN centre (KindKNN), or
	// the ORDER BY ST_Distance centre of a distance-ordered window.
	Point geom.Point
	// Window is the query rectangle (KindWindow only).
	Window geom.Rect
	// K is the neighbour count (KindKNN only).
	K int
	// Limit truncates the result to at most Limit points when > 0
	// (KindWindow only; a kNN's limit is K).
	Limit int
	// OrderByDistance sorts a window's result by ascending distance to
	// Point before Limit applies (KindWindow only).
	OrderByDistance bool
}

// Plan is the planner's decision for one Query.
type Plan struct {
	// Backend is the chosen engine's display name ("Sharded", "RR*",
	// "Grid", "KDB", …).
	Backend string
	// EstCostUS is the modelled execution cost in microseconds;
	// EstRows the estimated result cardinality (windows only).
	EstCostUS float64
	EstRows   float64
}

// Result is one executed Query: the answer plus the plan that produced
// it and its measured cost, so EXPLAIN can show estimated vs actual.
type Result struct {
	// Points is the result set. A point probe answers with the probe
	// point itself when found, so every query shape returns rows.
	Points []geom.Point
	// Found reports a non-empty answer (for point probes: existence).
	Found bool
	// Plan is the plan that was executed.
	Plan Plan
	// ActualUS is the measured engine execution time in microseconds.
	ActualUS float64
}

// Execute runs q against a single fixed engine — the degenerate
// "planner" every non-planner server uses for SQL, and the per-backend
// executor MultiEngine routes through. The plan in the result names the
// engine with no cost estimate (there is no model to estimate with).
func Execute(ctx context.Context, eng rsmi.Engine, q Query) (Result, error) {
	res := Result{Plan: Plan{Backend: eng.Name()}}
	start := time.Now()
	switch q.Kind {
	case KindPoint:
		found, err := eng.PointQueryContext(ctx, q.Point)
		if err != nil {
			return Result{}, err
		}
		res.Found = found
		if found {
			res.Points = []geom.Point{q.Point}
		}
	case KindWindow:
		pts, err := eng.WindowQueryContext(ctx, q.Window)
		if err != nil {
			return Result{}, err
		}
		res.Points = FinishWindow(q, pts)
		res.Found = len(res.Points) > 0
	case KindKNN:
		pts, err := eng.KNNContext(ctx, q.Point, q.K)
		if err != nil {
			return Result{}, err
		}
		res.Points = pts
		res.Found = len(pts) > 0
	default:
		return Result{}, fmt.Errorf("plan: unknown query kind %v", q.Kind)
	}
	res.ActualUS = float64(time.Since(start).Nanoseconds()) / 1e3
	return res, nil
}

// FinishWindow applies q's ORDER BY ST_Distance and LIMIT clauses to a
// window answer. Ordering is total (distance, then canonical point
// order), so truncated results are deterministic across backends.
func FinishWindow(q Query, pts []geom.Point) []geom.Point {
	if q.OrderByDistance {
		index.SortByDistance(pts, q.Point)
	}
	if q.Limit > 0 && len(pts) > q.Limit {
		pts = pts[:q.Limit]
	}
	return pts
}
