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

// Concurrent makes a single-goroutine engine safe for concurrent use:
// queries take a shared (read) lock and may run in parallel; updates take
// an exclusive lock. It wraps one Index (NewConcurrent, WrapConcurrent) or
// one of the paper's baseline indexes (NewRStarEngine, NewGridFileEngine,
// NewKDBEngine), so every backend of the paper's evaluation runs behind the
// identical serving stack — the "identical harness" requirement of the
// learned-spatial-index evaluation literature.
//
// The underlying RSMI's query paths are read-only apart from atomic
// block-access counters and the per-prediction scratch buffers, which are
// allocation-local, so shared-lock parallel queries are safe. The paper
// benchmarks single-threaded (§6.1); this wrapper is a library convenience,
// not part of the reproduction.
//
// One lock acquisition covers one query, which then runs in microseconds
// on the calling goroutine, so cancellation is observed at entry, not
// mid-query. A batch is a loop of single queries, each taking the lock.
type Concurrent struct {
	mu   sync.RWMutex
	e    unlocked
	name string
}

// unlocked is the single-goroutine engine a Concurrent guards: an *Index,
// or a baseline.
type unlocked interface {
	PointQueryContext(ctx context.Context, q Point) (bool, error)
	WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error)
	ExactWindowContext(ctx context.Context, q Rect) ([]Point, error)
	KNNContext(ctx context.Context, q Point, k int) ([]Point, error)
	ExactKNNContext(ctx context.Context, q Point, k int) ([]Point, error)
	InsertContext(ctx context.Context, p Point) error
	DeleteContext(ctx context.Context, p Point) (bool, error)
	RebuildContext(ctx context.Context) error
	Len() int
	Stats() Stats
	Accesses() int64
	ResetAccesses()
}

// NewConcurrent builds an RSMI and wraps it for concurrent use.
func NewConcurrent(pts []Point, opts Options) *Concurrent {
	return WrapConcurrent(New(pts, opts))
}

// WrapConcurrent wraps an existing index. The caller must not use idx
// directly afterwards.
func WrapConcurrent(idx *Index) *Concurrent {
	return &Concurrent{e: idx, name: "Concurrent"}
}

// NewRStarEngine builds an R*-tree-backed Engine over the points. A
// fanout of 0 selects the paper's default (100 entries per node).
func NewRStarEngine(pts []Point, fanout int) Engine {
	return wrapBaseline(rstar.New(geom.FinitePoints(pts), fanout))
}

// NewGridFileEngine builds a Grid-File-backed Engine over the points. A
// blockCapacity of 0 selects the paper's default (100 points per block).
func NewGridFileEngine(pts []Point, blockCapacity int) Engine {
	return wrapBaseline(gridfile.New(geom.FinitePoints(pts), blockCapacity))
}

// NewKDBEngine builds a K-D-B-tree-backed Engine over the points. A
// fanout of 0 selects the paper's default (100 entries per page).
func NewKDBEngine(pts []Point, fanout int) Engine {
	return wrapBaseline(kdb.New(geom.FinitePoints(pts), fanout))
}

// NewBaselineEngine builds a baseline-backed Engine by name — "rstar",
// "grid" (or "gridfile"), "kdb" — with paper-default parameters. It backs
// the cmds' -engine flags.
func NewBaselineEngine(name string, pts []Point) (Engine, error) {
	switch name {
	case "rstar":
		return NewRStarEngine(pts, 0), nil
	case "grid", "gridfile":
		return NewGridFileEngine(pts, 0), nil
	case "kdb":
		return NewKDBEngine(pts, 0), nil
	}
	return nil, fmt.Errorf("unknown baseline engine %q (want rstar|grid|kdb)", name)
}

// wrapBaseline puts a baseline built over finite points behind the lock,
// named after it ("RR*", "Grid", "KDB").
func wrapBaseline(ix index.Index) *Concurrent {
	return &Concurrent{e: baseline{ix}, name: ix.Name()}
}

// Name identifies the backend in stats and bench reports: "Concurrent"
// for a wrapped Index, the baseline's own name otherwise.
func (c *Concurrent) Name() string { return c.name }

// PointQueryContext reports whether a point with q's exact coordinates is
// indexed.
func (c *Concurrent) PointQueryContext(ctx context.Context, q Point) (bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.e.PointQueryContext(ctx, q)
}

// WindowQueryContext returns the indexed points inside the window
// (approximate with no false positives on an Index, exact on a baseline).
func (c *Concurrent) WindowQueryContext(ctx context.Context, q Rect) ([]Point, error) {
	return c.WindowQueryAppend(ctx, nil, q)
}

// WindowQueryAppend appends the window answer to dst under the read lock,
// for callers that reuse result buffers across queries.
func (c *Concurrent) WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.e.WindowQueryAppend(ctx, dst, q)
}

// ExactWindowContext returns the exact window answer (RSMIa traversal on an
// Index).
func (c *Concurrent) ExactWindowContext(ctx context.Context, q Rect) ([]Point, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.e.ExactWindowContext(ctx, q)
}

// KNNContext returns up to k nearest neighbours, closest first
// (approximate on an Index, exact on a baseline).
func (c *Concurrent) KNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.e.KNNContext(ctx, q, k)
}

// ExactKNNContext returns the exact k nearest neighbours (best-first
// traversal on an Index).
func (c *Concurrent) ExactKNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.e.ExactKNNContext(ctx, q, k)
}

// BatchPointQueryContext is PointQueryContext per element of qs.
func (c *Concurrent) BatchPointQueryContext(ctx context.Context, qs []Point) ([]bool, error) {
	return index.Batch(ctx, qs, c.PointQueryContext)
}

// BatchWindowQueryContext is WindowQueryContext per element of qs.
func (c *Concurrent) BatchWindowQueryContext(ctx context.Context, qs []Rect) ([][]Point, error) {
	return index.Batch(ctx, qs, c.WindowQueryContext)
}

// BatchKNNContext is KNNContext per element of qs.
func (c *Concurrent) BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]Point, error) {
	return index.Batch(ctx, qs, func(ctx context.Context, q KNNQuery) ([]Point, error) {
		return c.KNNContext(ctx, q.Q, q.K)
	})
}

// InsertContext adds a point; an admitted insert always completes. A
// point that cannot be indexed is refused with ErrNonFinitePoint.
func (c *Concurrent) InsertContext(ctx context.Context, p Point) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.InsertContext(ctx, p)
}

// DeleteContext removes the point with p's exact coordinates.
func (c *Concurrent) DeleteContext(ctx context.Context, p Point) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.DeleteContext(ctx, p)
}

// RebuildContext reconstructs an Index from its live points (§5's
// periodic rebuild), blocking all other operations for the duration; a
// started rebuild runs to completion. On a baseline it is a no-op.
func (c *Concurrent) RebuildContext(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.RebuildContext(ctx)
}

// Len returns the number of live points.
func (c *Concurrent) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.e.Len()
}

// Stats returns structural statistics.
func (c *Concurrent) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.e.Stats()
}

// Accesses returns block accesses since the last reset (the paper's
// external-memory cost indicator, aggregated across all queries).
func (c *Concurrent) Accesses() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.e.Accesses()
}

// ResetAccesses zeroes the block-access counter.
func (c *Concurrent) ResetAccesses() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.e.ResetAccesses()
}

// baseline maps one of the paper's single-goroutine comparison indexes
// onto the calls Concurrent makes, checking ctx at entry; Concurrent's lock
// is its only guard. Baselines answer exactly, so the Exact variants are
// the plain ones, and RebuildContext is a no-op: there is no model to
// retrain, and the trees rebalance on insert. Like the learned engines it
// refuses to index a point with a NaN or infinite coordinate — folded into
// a node's MBR such a point hides everything under it — and finds nothing
// nearest to one.
type baseline struct{ index.Index }

func (b baseline) PointQueryContext(ctx context.Context, q Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return b.PointQuery(q), nil
}

func (b baseline) WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	return append(dst, b.WindowQuery(q)...), nil
}

func (b baseline) ExactWindowContext(ctx context.Context, q Rect) ([]Point, error) {
	return b.WindowQueryAppend(ctx, nil, q)
}

func (b baseline) KNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	if err := ctx.Err(); err != nil || !q.IsFinite() {
		return nil, err
	}
	return b.KNN(q, k), nil
}

func (b baseline) ExactKNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	return b.KNNContext(ctx, q, k)
}

func (b baseline) InsertContext(ctx context.Context, p Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !p.IsFinite() {
		return ErrNonFinitePoint
	}
	b.Insert(p)
	return nil
}

func (b baseline) DeleteContext(ctx context.Context, p Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return b.Delete(p), nil
}

func (b baseline) RebuildContext(ctx context.Context) error { return ctx.Err() }
