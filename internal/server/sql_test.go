package server

// POST /v1/sql end to end: the planner engine behind every transport,
// EXPLAIN carrying the chosen backend and estimated-vs-actual cost on
// all three, parse errors as 400s, and SQL against a fixed (non-planner)
// backend.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/plan"
)

// plannerTestEngine builds a calibrated MultiEngine over the usual test
// point set: the sharded RSMI plus every baseline.
func plannerTestEngine(t testing.TB) (*plan.MultiEngine, []geom.Point) {
	t.Helper()
	primary, pts := testEngine(t)
	backends := []rsmi.Engine{primary}
	for _, name := range []string{"rstar", "grid", "kdb"} {
		b, err := rsmi.NewBaselineEngine(name, pts)
		if err != nil {
			t.Fatalf("NewBaselineEngine(%s): %v", name, err)
		}
		backends = append(backends, b)
	}
	me, err := plan.NewMultiEngine(plan.NewStats(pts), backends...)
	if err != nil {
		t.Fatal(err)
	}
	if err := me.Calibrate(context.Background()); err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	return me, pts
}

// TestSQLAcrossTransports pins the acceptance criterion: /v1/sql with
// EXPLAIN reports the chosen backend and estimated vs actual cost over
// HTTP JSON, HTTP binary, and the TCP stream alike.
func TestSQLAcrossTransports(t *testing.T) {
	eng, pts := plannerTestEngine(t)
	_, httpURL, streamAddr := startStreamServer(t, Config{Engine: eng})
	addr := strings.TrimPrefix(httpURL, "http://")

	clients := map[string]*Client{
		"http-json":   NewClient(addr),
		"http-binary": NewClient(addr, WithProto(ProtoBinary)),
		"tcp-stream":  NewClient(streamAddr, WithTransport(TransportTCP)),
	}
	for _, cl := range clients {
		t.Cleanup(cl.Close)
	}

	ctx := context.Background()
	c := pts[99]
	queries := []string{
		fmt.Sprintf("SELECT * FROM points WHERE ST_Equals(pt, POINT(%g, %g))", c.X, c.Y),
		fmt.Sprintf("SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g))",
			c.X-0.02, c.Y-0.02, c.X+0.02, c.Y+0.02),
		fmt.Sprintf("SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g)) ORDER BY ST_Distance(pt, POINT(%g, %g)) LIMIT 5",
			c.X-0.05, c.Y-0.05, c.X+0.05, c.Y+0.05, c.X, c.Y),
		fmt.Sprintf("SELECT * FROM points ORDER BY ST_Distance(pt, POINT(%g, %g)) LIMIT 7", c.X, c.Y),
	}
	for _, sql := range queries {
		answers := map[string][]geom.Point{}
		backends := map[string]string{}
		for name, cl := range clients {
			var tj *TraceJSON
			pts, err := cl.SQL(ctx, sql, WithExplain(&tj))
			if err != nil {
				t.Fatalf("%s: SQL(%q): %v", name, sql, err)
			}
			if tj == nil {
				t.Fatalf("%s: SQL(%q): no EXPLAIN trace", name, sql)
			}
			if tj.Plan == nil {
				t.Fatalf("%s: SQL(%q): EXPLAIN trace carries no plan", name, sql)
			}
			if tj.Plan.Backend == "" {
				t.Fatalf("%s: SQL(%q): plan names no backend", name, sql)
			}
			if tj.Plan.EstCostUS <= 0 {
				t.Fatalf("%s: SQL(%q): calibrated planner estimated no cost: %+v", name, sql, tj.Plan)
			}
			if tj.Plan.ActualCostUS <= 0 {
				t.Fatalf("%s: SQL(%q): no measured actual cost: %+v", name, sql, tj.Plan)
			}
			answers[name] = pts
			backends[name] = tj.Plan.Backend
		}
		// Transports that routed to the same backend must answer
		// identically (different backends may legitimately differ:
		// RSMI windows are approximate, baselines exact).
		for a, aPts := range answers {
			for b, bPts := range answers {
				if a >= b || backends[a] != backends[b] {
					continue
				}
				if len(aPts) != len(bPts) {
					t.Fatalf("SQL(%q): %s answered %d points, %s answered %d (both via %s)",
						sql, a, len(aPts), b, len(bPts), backends[a])
				}
				for i := range aPts {
					if aPts[i] != bPts[i] {
						t.Fatalf("SQL(%q): %s and %s disagree at point %d", sql, a, b, i)
					}
				}
			}
		}
	}

	// The planner surfaced its counters through /v1/stats' engine name.
	st, err := clients["http-json"].Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Engine != "Planner" {
		t.Fatalf("stats engine = %q, want Planner", st.Engine)
	}
}

// TestSQLParseErrors pins the 400 mapping on every transport.
func TestSQLParseErrors(t *testing.T) {
	eng, _ := plannerTestEngine(t)
	_, httpURL, streamAddr := startStreamServer(t, Config{Engine: eng})
	addr := strings.TrimPrefix(httpURL, "http://")

	clients := map[string]*Client{
		"http-json":   NewClient(addr),
		"http-binary": NewClient(addr, WithProto(ProtoBinary)),
		"tcp-stream":  NewClient(streamAddr, WithTransport(TransportTCP)),
	}
	for _, cl := range clients {
		t.Cleanup(cl.Close)
	}
	ctx := context.Background()
	for name, cl := range clients {
		for _, sql := range []string{
			"DROP TABLE points",
			"SELECT * FROM points WHERE ST_Within(pt, BOX(0, 0, 1))",
			"SELECT * FROM points",
		} {
			_, err := cl.SQL(ctx, sql)
			if err == nil {
				t.Fatalf("%s: SQL(%q) succeeded, want a 400", name, sql)
			}
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("%s: SQL(%q) error is %T (%v), want *StatusError", name, sql, err, err)
			}
			if se.Code != 400 {
				t.Fatalf("%s: SQL(%q) status %d, want 400", name, sql, se.Code)
			}
		}
	}
}

// TestSQLFixedBackend: without a planner engine, /v1/sql still answers —
// executed directly on the serving backend, whose name the plan reports
// (with no cost estimate: there is no model to estimate with).
func TestSQLFixedBackend(t *testing.T) {
	eng, pts := testEngine(t)
	_, cl := startTestServer(t, Config{Engine: eng})
	ctx := context.Background()

	c := pts[7]
	var tj *TraceJSON
	got, err := cl.SQL(ctx,
		fmt.Sprintf("SELECT * FROM points WHERE ST_Within(pt, BOX(%g, %g, %g, %g))",
			c.X-0.03, c.Y-0.03, c.X+0.03, c.Y+0.03),
		WithExplain(&tj))
	if err != nil {
		t.Fatalf("SQL: %v", err)
	}
	want, err := eng.WindowQueryContext(ctx, geom.Rect{MinX: c.X - 0.03, MinY: c.Y - 0.03, MaxX: c.X + 0.03, MaxY: c.Y + 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("SQL window answered %d points, engine says %d", len(got), len(want))
	}
	if tj == nil || tj.Plan == nil || tj.Plan.Backend != eng.Name() {
		t.Fatalf("fixed-backend EXPLAIN plan = %+v, want backend %q", tj.Plan, eng.Name())
	}
}

// SQL statements are single requests: a multi-op batch containing one is
// rejected as a bad request.
func TestSQLRejectedInBatch(t *testing.T) {
	eng, _ := plannerTestEngine(t)
	_, cl := startTestServer(t, Config{Engine: eng})
	_, err := cl.Batch(context.Background(), []BatchOp{
		{Op: OpPoint, X: 0.5, Y: 0.5},
		{Op: OpSQL, SQL: "SELECT * FROM points ORDER BY ST_Distance(pt, POINT(0.5, 0.5)) LIMIT 1"},
	})
	if err == nil {
		t.Fatal("batch containing SQL succeeded, want a 400")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("batch containing SQL: %v, want a 400 StatusError", err)
	}
}
