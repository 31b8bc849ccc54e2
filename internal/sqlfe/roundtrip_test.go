package sqlfe_test

// The round-trip property: for every backend and every statement the
// dialect can express, parse → plan.Execute answers exactly what the
// direct Engine call answers. SQL must be a front-end, not a different
// query engine.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/plan"
	"rsmi/internal/sqlfe"
)

// roundtripEngines builds every backend class over the same point set.
func roundtripEngines(t *testing.T) ([]rsmi.Engine, []geom.Point) {
	t.Helper()
	pts := dataset.Generate(dataset.Skewed, 3000, 97)
	engines := []rsmi.Engine{
		rsmi.NewSharded(pts, rsmi.ShardOptions{
			Shards: 2,
			Index:  rsmi.Options{Epochs: 10, Seed: 1, PartitionThreshold: 800, BlockCapacity: 50},
		}),
	}
	for _, name := range []string{"rstar", "grid", "kdb"} {
		eng, err := rsmi.NewBaselineEngine(name, pts)
		if err != nil {
			t.Fatalf("NewBaselineEngine(%s): %v", name, err)
		}
		engines = append(engines, eng)
	}
	return engines, pts
}

func samePoints(got, want []geom.Point) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestSQLRoundTrip(t *testing.T) {
	engines, pts := roundtripEngines(t)
	ctx := context.Background()
	for _, eng := range engines {
		eng := eng
		t.Run(eng.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 40; i++ {
				// Point probes: half present, half absent.
				p := pts[rng.Intn(len(pts))]
				if i%2 == 1 {
					p = geom.Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
				}
				sql := fmt.Sprintf("SELECT * FROM points WHERE ST_Equals(pt, POINT(%g, %g))", p.X, p.Y)
				res := mustExec(t, ctx, eng, sql)
				want, err := eng.PointQueryContext(ctx, p)
				if err != nil {
					t.Fatalf("PointQueryContext: %v", err)
				}
				if res.Found != want {
					t.Fatalf("%s: Found=%v, engine says %v", sql, res.Found, want)
				}
				if want && !samePoints(res.Points, []geom.Point{p}) {
					t.Fatalf("%s: Points=%v, want the probe point", sql, res.Points)
				}

				// Windows: answers must match the engine element-wise
				// (same order), whatever the backend's semantics
				// (approximate for RSMI, exact for baselines).
				c := pts[rng.Intn(len(pts))]
				w := geom.RectAround(c, 0.01+rng.Float64()*0.05, 0.01+rng.Float64()*0.05)
				sql = fmt.Sprintf("SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g))",
					w.MinX, w.MinY, w.MaxX, w.MaxY)
				res = mustExec(t, ctx, eng, sql)
				wantPts, err := eng.WindowQueryContext(ctx, w)
				if err != nil {
					t.Fatalf("WindowQueryContext: %v", err)
				}
				if !samePoints(res.Points, wantPts) {
					t.Fatalf("%s: %d points, engine says %d", sql, len(res.Points), len(wantPts))
				}

				// Ordered + truncated windows: a distance-sorted prefix
				// of the window answer.
				limit := 1 + rng.Intn(5)
				sql = fmt.Sprintf(
					"SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g)) ORDER BY ST_Distance(pt, POINT(%g, %g)) LIMIT %d",
					w.MinX, w.MinY, w.MaxX, w.MaxY, c.X, c.Y, limit)
				res = mustExec(t, ctx, eng, sql)
				ordered := append([]geom.Point(nil), wantPts...)
				index.SortByDistance(ordered, c)
				if len(ordered) > limit {
					ordered = ordered[:limit]
				}
				if !samePoints(res.Points, ordered) {
					t.Fatalf("%s: got %v, want %v", sql, res.Points, ordered)
				}

				// kNN.
				k := 1 + rng.Intn(10)
				sql = fmt.Sprintf("SELECT * FROM points ORDER BY ST_Distance(pt, POINT(%g, %g)) LIMIT %d", c.X, c.Y, k)
				res = mustExec(t, ctx, eng, sql)
				knn, err := eng.KNNContext(ctx, c, k)
				if err != nil {
					t.Fatalf("KNNContext: %v", err)
				}
				if !samePoints(res.Points, knn) {
					t.Fatalf("%s: got %d points, engine says %d", sql, len(res.Points), len(knn))
				}
			}
		})
	}
}

// mustExec parses and executes one statement against eng.
func mustExec(t *testing.T, ctx context.Context, eng rsmi.Engine, sql string) plan.Result {
	t.Helper()
	q, err := sqlfe.Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	res, err := plan.Execute(ctx, eng, q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	if res.Plan.Backend != eng.Name() {
		t.Fatalf("Execute(%q): plan names backend %q, executed on %q", sql, res.Plan.Backend, eng.Name())
	}
	return res
}

// The same property through the planner: MultiEngine.ExecQuery must
// answer what the backend it routed to answers, whichever that is.
func TestSQLRoundTripPlanned(t *testing.T) {
	engines, pts := roundtripEngines(t)
	me, err := plan.NewMultiEngine(plan.NewStats(pts), engines...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := me.Calibrate(ctx); err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 25; i++ {
		c := pts[rng.Intn(len(pts))]
		w := geom.RectAround(c, 0.02, 0.02)
		sql := fmt.Sprintf("SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g))",
			w.MinX, w.MinY, w.MaxX, w.MaxY)
		q, err := sqlfe.Parse(sql)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		res, err := me.ExecQuery(ctx, q)
		if err != nil {
			t.Fatalf("ExecQuery: %v", err)
		}
		if res.Plan.Backend == "" {
			t.Fatalf("planned result carries no backend")
		}
		var routed rsmi.Engine
		for _, eng := range engines {
			if eng.Name() == res.Plan.Backend {
				routed = eng
			}
		}
		if routed == nil {
			t.Fatalf("plan routed to unknown backend %q", res.Plan.Backend)
		}
		want, err := routed.WindowQueryContext(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(res.Points, want) {
			t.Fatalf("planned answer differs from routed backend %s: %d vs %d points",
				res.Plan.Backend, len(res.Points), len(want))
		}
		if res.Plan.EstCostUS <= 0 {
			t.Fatalf("calibrated plan has no cost estimate: %+v", res.Plan)
		}
	}
	c := me.PlannerStats()
	if c.Planned < 25 {
		t.Fatalf("planner counted %d planned queries, want >= 25", c.Planned)
	}
}
