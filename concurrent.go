package rsmi

import (
	"context"
	"fmt"
	"sync"

	"rsmi/internal/geom"
	"rsmi/internal/gridfile"
	"rsmi/internal/index"
	"rsmi/internal/kdb"
	"rsmi/internal/rstar"
)

// locked makes one of the paper's single-goroutine baseline indexes safe
// for concurrent use: queries take a shared (read) lock and may run in
// parallel; updates take an exclusive lock. It backs NewBaselineEngine, so
// every backend of the paper's evaluation runs behind the identical serving
// stack — the "identical harness" requirement of the learned-spatial-index
// evaluation literature.
// The learned index has a concurrent form of its own: Sharded, whose
// Shards: 1 is one lock over one RSMI.
//
// Each method checks ctx at entry, takes the lock and calls the index: a
// baseline query runs in microseconds on the calling goroutine, so
// cancellation is not observed mid-query. Baselines answer exactly, so the
// Exact variants are the plain ones, and RebuildContext is a no-op: there
// is no model to retrain, and the trees rebalance on insert. Like the
// learned engines it refuses to index a point with a NaN or infinite
// coordinate — folded into a node's MBR such a point hides everything under
// it — and finds nothing nearest to one.
type locked struct {
	mu sync.RWMutex
	ix index.Index
}

// NewBaselineEngine builds a baseline-backed Engine by name — "rstar"
// (R*-tree), "grid" (Grid File) or "kdb" (K-D-B-tree) — with the paper's
// defaults (100 entries per node, page or block). It backs the cmds'
// -engine flags.
func NewBaselineEngine(name string, pts []Point) (Engine, error) {
	pts = geom.FinitePoints(pts)
	switch name {
	case "rstar":
		return &locked{ix: rstar.New(pts, 0)}, nil
	case "grid":
		return &locked{ix: gridfile.New(pts, 0)}, nil
	case "kdb":
		return &locked{ix: kdb.New(pts, 0)}, nil
	}
	return nil, fmt.Errorf("unknown baseline engine %q (want rstar|grid|kdb)", name)
}

// Name is the baseline's own name ("RR*", "Grid", "KDB").
func (l *locked) Name() string { return l.ix.Name() }

func (l *locked) PointQueryContext(ctx context.Context, q Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.PointQuery(q), nil
}

func (l *locked) WindowQueryContext(ctx context.Context, q Rect) ([]Point, error) {
	return l.WindowQueryAppend(ctx, nil, q)
}

func (l *locked) WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append(dst, l.ix.WindowQuery(q)...), nil
}

func (l *locked) ExactWindowContext(ctx context.Context, q Rect) ([]Point, error) {
	return l.WindowQueryAppend(ctx, nil, q)
}

func (l *locked) KNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.KNN(q, k), nil
}

func (l *locked) ExactKNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	return l.KNNContext(ctx, q, k)
}

func (l *locked) BatchPointQueryContext(ctx context.Context, qs []Point) ([]bool, error) {
	return index.Batch(ctx, qs, l.PointQueryContext)
}

func (l *locked) BatchWindowQueryContext(ctx context.Context, qs []Rect) ([][]Point, error) {
	return index.Batch(ctx, qs, l.WindowQueryContext)
}

func (l *locked) BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]Point, error) {
	return index.Batch(ctx, qs, func(ctx context.Context, q KNNQuery) ([]Point, error) {
		return l.KNNContext(ctx, q.Q, q.K)
	})
}

func (l *locked) InsertContext(ctx context.Context, p Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !p.IsFinite() {
		return ErrNonFinitePoint
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ix.Insert(p)
	return nil
}

func (l *locked) DeleteContext(ctx context.Context, p Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ix.Delete(p), nil
}

func (l *locked) RebuildContext(ctx context.Context) error { return ctx.Err() }

func (l *locked) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.Len()
}

func (l *locked) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.Stats()
}

func (l *locked) Accesses() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.Accesses()
}

func (l *locked) ResetAccesses() {
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.ix.ResetAccesses()
}
