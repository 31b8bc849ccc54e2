package rsmi

import (
	"context"
	"sync"
)

// Concurrent wraps an Index for concurrent use: queries take a shared
// (read) lock and may run in parallel; updates take an exclusive lock.
//
// The underlying RSMI's query paths are read-only apart from atomic
// block-access counters and the per-prediction scratch buffers, which are
// allocation-local, so shared-lock parallel queries are safe. The paper
// benchmarks single-threaded (§6.1); this wrapper is a library convenience,
// not part of the reproduction.
type Concurrent struct {
	mu  sync.RWMutex
	idx *Index
}

// NewConcurrent builds an RSMI and wraps it for concurrent use.
func NewConcurrent(pts []Point, opts Options) *Concurrent {
	return &Concurrent{idx: New(pts, opts)}
}

// WrapConcurrent wraps an existing index. The caller must not use idx
// directly afterwards.
func WrapConcurrent(idx *Index) *Concurrent {
	return &Concurrent{idx: idx}
}

// PointQuery reports whether a point with q's exact coordinates is indexed.
//
// Deprecated: use PointQueryContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) PointQuery(q Point) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.PointQuery(q)
}

// WindowQuery returns the indexed points inside the window (approximate, no
// false positives).
//
// Deprecated: use WindowQueryContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) WindowQuery(q Rect) []Point {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.WindowQuery(q)
}

// ExactWindow returns the exact window answer (RSMIa traversal).
//
// Deprecated: use ExactWindowContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) ExactWindow(q Rect) []Point {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.ExactWindow(q)
}

// KNN returns up to k approximate nearest neighbours, closest first.
//
// Deprecated: use KNNContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) KNN(q Point, k int) []Point {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.KNN(q, k)
}

// ExactKNN returns the exact k nearest neighbours (best-first traversal).
//
// Deprecated: use ExactKNNContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) ExactKNN(q Point, k int) []Point {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.ExactKNN(q, k)
}

// BatchPointQuery answers one point query per element of qs under a single
// read-lock acquisition, amortising the lock overhead across the batch.
// Answers are identical to calling PointQuery per element.
//
// Deprecated: use BatchPointQueryContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) BatchPointQuery(qs []Point) []bool {
	out := make([]bool, len(qs))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, q := range qs {
		out[i] = c.idx.PointQuery(q)
	}
	return out
}

// BatchWindowQuery answers one window query per element of qs under a
// single read-lock acquisition. Answers are identical to calling
// WindowQuery per element.
//
// Deprecated: use BatchWindowQueryContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) BatchWindowQuery(qs []Rect) [][]Point {
	out := make([][]Point, len(qs))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, q := range qs {
		out[i] = c.idx.WindowQuery(q)
	}
	return out
}

// BatchKNN answers one kNN query per element of qs under a single
// read-lock acquisition. Answers are identical to calling KNN per element.
//
// Deprecated: use BatchKNNContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) BatchKNN(qs []KNNQuery) [][]Point {
	out := make([][]Point, len(qs))
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, q := range qs {
		out[i] = c.idx.KNN(q.Q, q.K)
	}
	return out
}

// Insert adds a point.
//
// Deprecated: use InsertContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) Insert(p Point) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx.Insert(p)
}

// Delete removes the point with p's exact coordinates.
//
// Deprecated: use DeleteContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) Delete(p Point) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Delete(p)
}

// Rebuild reconstructs the index from its live points (§5's periodic
// rebuild), blocking all other operations for the duration.
//
// Deprecated: use RebuildContext instead; the context-free form wraps
// it with context.Background().
func (c *Concurrent) Rebuild() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx.Rebuild()
}

// Len returns the number of live points.
func (c *Concurrent) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.Len()
}

// Stats returns structural statistics.
func (c *Concurrent) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.Stats()
}

// Name identifies the backend in stats and bench reports.
func (c *Concurrent) Name() string { return "Concurrent" }

// The context-aware Engine surface. One lock acquisition covers one
// query, which then runs in microseconds on the calling goroutine, so —
// like Index — cancellation is observed at entry (and between elements of
// the batch variants), not mid-query.

// PointQueryContext is PointQuery honouring ctx at entry.
func (c *Concurrent) PointQueryContext(ctx context.Context, q Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return c.PointQuery(q), nil
}

// WindowQueryContext is WindowQuery honouring ctx at entry.
func (c *Concurrent) WindowQueryContext(ctx context.Context, q Rect) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.WindowQuery(q), nil
}

// WindowQueryAppend appends the window answer to dst under the read lock,
// for callers that reuse result buffers across queries.
func (c *Concurrent) WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.WindowQueryAppend(ctx, dst, q)
}

// ExactWindowContext is ExactWindow honouring ctx at entry.
func (c *Concurrent) ExactWindowContext(ctx context.Context, q Rect) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.ExactWindow(q), nil
}

// KNNContext is KNN honouring ctx at entry.
func (c *Concurrent) KNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.KNN(q, k), nil
}

// ExactKNNContext is ExactKNN honouring ctx at entry.
func (c *Concurrent) ExactKNNContext(ctx context.Context, q Point, k int) ([]Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.ExactKNN(q, k), nil
}

// BatchPointQueryContext is BatchPointQuery observing ctx between
// elements, under a single read-lock acquisition.
func (c *Concurrent) BatchPointQueryContext(ctx context.Context, qs []Point) ([]bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.BatchPointQueryContext(ctx, qs)
}

// BatchWindowQueryContext is BatchWindowQuery observing ctx between
// elements, under a single read-lock acquisition.
func (c *Concurrent) BatchWindowQueryContext(ctx context.Context, qs []Rect) ([][]Point, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.BatchWindowQueryContext(ctx, qs)
}

// BatchKNNContext is BatchKNN observing ctx between elements, under a
// single read-lock acquisition.
func (c *Concurrent) BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]Point, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.BatchKNNContext(ctx, qs)
}

// InsertContext is Insert honouring ctx at entry; an admitted insert
// always completes. A point that cannot be indexed is refused with
// ErrNonFinitePoint.
func (c *Concurrent) InsertContext(ctx context.Context, p Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.InsertContext(ctx, p)
}

// DeleteContext is Delete honouring ctx at entry.
func (c *Concurrent) DeleteContext(ctx context.Context, p Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return c.Delete(p), nil
}

// RebuildContext is Rebuild honouring ctx at entry; a started rebuild
// runs to completion behind the write lock.
func (c *Concurrent) RebuildContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Rebuild()
	return nil
}

// Accesses returns block accesses since the last reset (the paper's
// external-memory cost indicator, aggregated across all queries).
func (c *Concurrent) Accesses() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.Accesses()
}

// ResetAccesses zeroes the block-access counter.
func (c *Concurrent) ResetAccesses() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.idx.ResetAccesses()
}
