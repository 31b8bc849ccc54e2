package plan

// MultiEngine: several backends over one logical point set, planned per
// query. It implements the full rsmi.Engine, so the serving stack puts
// it behind the same endpoints as any fixed backend (`rsmi-serve
// -engine planner`); reads route to the backend the cost models pick, writes
// apply to every backend to keep them answering identically.

import (
	"context"
	"fmt"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/shard"
)

// MultiEngine routes every query across its backends via the planner.
// The first backend is the primary: it defines Len and structural
// stats, and is the fallback when no cost model exists yet.
type MultiEngine struct {
	backends []rsmi.Engine
	byName   map[string]rsmi.Engine
	stats    *Stats
}

var _ rsmi.Engine = (*MultiEngine)(nil)

// NewMultiEngine builds a planner engine over the backends, which must
// already hold the same point set. Call Calibrate before serving so the
// planner has cost models to route with; until then everything routes
// to the primary.
func NewMultiEngine(stats *Stats, backends ...rsmi.Engine) (*MultiEngine, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("plan: MultiEngine needs at least one backend")
	}
	byName := make(map[string]rsmi.Engine, len(backends))
	for _, b := range backends {
		if _, dup := byName[b.Name()]; dup {
			return nil, fmt.Errorf("plan: duplicate backend name %q", b.Name())
		}
		byName[b.Name()] = b
	}
	return &MultiEngine{backends: backends, byName: byName, stats: stats}, nil
}

// Calibrate fits a cost model for every backend (see Stats.Calibrate).
func (m *MultiEngine) Calibrate(ctx context.Context) error {
	for _, b := range m.backends {
		if err := m.stats.Calibrate(ctx, b); err != nil {
			return err
		}
	}
	return nil
}

// Name identifies the planner in stats and traces.
func (m *MultiEngine) Name() string { return "Planner" }

// PlanQuery plans q without executing it.
func (m *MultiEngine) PlanQuery(q Query) Plan { return m.stats.Choose(q) }

// PlannerStats snapshots routing and misprediction counters.
func (m *MultiEngine) PlannerStats() Counters { return m.stats.Counters() }

// engine resolves a plan's backend, falling back to the primary.
func (m *MultiEngine) engine(name string) rsmi.Engine {
	if e, ok := m.byName[name]; ok {
		return e
	}
	return m.backends[0]
}

// ExecQuery plans q, executes it on the chosen backend, feeds the
// measured cost back into the model, and returns the answer with the
// plan and actual cost attached — the planner's EXPLAIN-able entry
// point, used by the SQL front-end.
func (m *MultiEngine) ExecQuery(ctx context.Context, q Query) (Result, error) {
	return m.ExecPlanned(ctx, m.stats.Choose(q), q)
}

// ExecPlanned executes an already-chosen plan for q — the server plans
// first (so EXPLAIN can time the plan stage separately) and executes
// here. The measured cost feeds back into the chosen backend's model.
func (m *MultiEngine) ExecPlanned(ctx context.Context, pl Plan, q Query) (Result, error) {
	res, err := Execute(ctx, m.engine(pl.Backend), q)
	if err != nil {
		return Result{}, err
	}
	if pl.Backend == "" {
		pl.Backend = m.backends[0].Name()
	}
	res.Plan = pl
	m.stats.Observe(pl, q, res.ActualUS)
	return res, nil
}

// run times one routed engine call and feeds the observation back.
func (m *MultiEngine) run(pl Plan, q Query, f func(eng rsmi.Engine) error) error {
	start := time.Now()
	err := f(m.engine(pl.Backend))
	if err != nil {
		return err
	}
	m.stats.Observe(pl, q, usSince(start))
	return nil
}

func (m *MultiEngine) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	pq := Query{Kind: KindPoint, Point: q}
	var found bool
	err := m.run(m.stats.Choose(pq), pq, func(eng rsmi.Engine) error {
		var err error
		found, err = eng.PointQueryContext(ctx, q)
		return err
	})
	return found, err
}

func (m *MultiEngine) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	wq := Query{Kind: KindWindow, Window: q}
	var pts []geom.Point
	err := m.run(m.stats.Choose(wq), wq, func(eng rsmi.Engine) error {
		var err error
		pts, err = eng.WindowQueryContext(ctx, q)
		return err
	})
	return pts, err
}

func (m *MultiEngine) WindowQueryAppend(ctx context.Context, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	wq := Query{Kind: KindWindow, Window: q}
	out := dst
	err := m.run(m.stats.Choose(wq), wq, func(eng rsmi.Engine) error {
		var err error
		out, err = eng.WindowQueryAppend(ctx, dst, q)
		return err
	})
	if err != nil {
		return dst, err
	}
	return out, nil
}

// ExactWindowContext routes like a window query but executes the exact
// variant on the chosen backend (exact ≡ approximate on baselines).
func (m *MultiEngine) ExactWindowContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	wq := Query{Kind: KindWindow, Window: q}
	var pts []geom.Point
	err := m.run(m.stats.Choose(wq), wq, func(eng rsmi.Engine) error {
		var err error
		pts, err = eng.ExactWindowContext(ctx, q)
		return err
	})
	return pts, err
}

func (m *MultiEngine) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	kq := Query{Kind: KindKNN, Point: q, K: k}
	var pts []geom.Point
	err := m.run(m.stats.Choose(kq), kq, func(eng rsmi.Engine) error {
		var err error
		pts, err = eng.KNNContext(ctx, q, k)
		return err
	})
	return pts, err
}

func (m *MultiEngine) ExactKNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	kq := Query{Kind: KindKNN, Point: q, K: k}
	var pts []geom.Point
	err := m.run(m.stats.Choose(kq), kq, func(eng rsmi.Engine) error {
		var err error
		pts, err = eng.ExactKNNContext(ctx, q, k)
		return err
	})
	return pts, err
}

// BatchPointQueryContext is PointQueryContext per element of qs: every
// query is planned, routed and observed on its own.
func (m *MultiEngine) BatchPointQueryContext(ctx context.Context, qs []geom.Point) ([]bool, error) {
	return index.Batch(ctx, qs, m.PointQueryContext)
}

// BatchWindowQueryContext is WindowQueryContext per element of qs.
func (m *MultiEngine) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	return index.Batch(ctx, qs, m.WindowQueryContext)
}

// BatchKNNContext is KNNContext per element of qs.
func (m *MultiEngine) BatchKNNContext(ctx context.Context, qs []shard.KNNQuery) ([][]geom.Point, error) {
	return index.Batch(ctx, qs, func(ctx context.Context, q shard.KNNQuery) ([]geom.Point, error) {
		return m.KNNContext(ctx, q.Q, q.K)
	})
}

// InsertContext applies the write to every backend, so reads keep
// answering identically regardless of routing. An error part-way
// through aborts (a cancelled context mid-write can leave backends
// diverged; the serving layer treats that as fatal for the request and
// the next rebuild reconverges them).
func (m *MultiEngine) InsertContext(ctx context.Context, p geom.Point) error {
	for _, b := range m.backends {
		if err := b.InsertContext(ctx, p); err != nil {
			return err
		}
	}
	return nil
}

// DeleteContext applies the delete everywhere; the primary's answer is
// the authoritative "was it present".
func (m *MultiEngine) DeleteContext(ctx context.Context, p geom.Point) (bool, error) {
	deleted, err := m.backends[0].DeleteContext(ctx, p)
	if err != nil {
		return false, err
	}
	for _, b := range m.backends[1:] {
		if _, err := b.DeleteContext(ctx, p); err != nil {
			return false, err
		}
	}
	return deleted, nil
}

// RebuildContext rebuilds every backend (a no-op on baselines).
func (m *MultiEngine) RebuildContext(ctx context.Context) error {
	for _, b := range m.backends {
		if err := b.RebuildContext(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Len reports the primary's point count (backends hold the same set).
func (m *MultiEngine) Len() int { return m.backends[0].Len() }

// Stats reports the primary's structure under the planner's name, with
// the footprint summed across all backends — the honest cost of
// holding every index at once.
func (m *MultiEngine) Stats() rsmi.Stats {
	st := m.backends[0].Stats()
	st.Name = m.Name()
	st.SizeBytes = 0
	for _, b := range m.backends {
		st.SizeBytes += b.Stats().SizeBytes
	}
	return st
}

// Accesses sums block accesses across backends; ResetAccesses resets
// them all.
func (m *MultiEngine) Accesses() int64 {
	var sum int64
	for _, b := range m.backends {
		sum += b.Accesses()
	}
	return sum
}

func (m *MultiEngine) ResetAccesses() {
	for _, b := range m.backends {
		b.ResetAccesses()
	}
}
