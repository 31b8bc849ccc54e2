package core

// Context-aware query surface (the rsmi.Engine v2 API). A single RSMI
// executes each query on one goroutine in microseconds, so cancellation is
// observed at operation entry: a context that is already cancelled or past
// its deadline fails fast, and an in-flight single-index query runs to
// completion. The sharded engine (internal/shard) is where cancellation is
// observed *during* execution, between shard visits.

import (
	"context"

	"rsmi/internal/geom"
	"rsmi/internal/index"
)

// PointQueryContext is PointQuery honouring ctx at entry.
func (t *RSMI) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return t.PointQuery(q), nil
}

// WindowQueryContext is WindowQuery honouring ctx at entry.
func (t *RSMI) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.WindowQuery(q), nil
}

// WindowQueryAppend is WindowQueryContext appending the answer to dst and
// returning the extended slice, so callers that reuse buffers across
// queries avoid the per-query result allocation; it allocates only when dst
// has to grow. On error dst is returned unextended.
//
//rsmi:noalloc
func (t *RSMI) WindowQueryAppend(ctx context.Context, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	return t.windowQueryAppend(dst, q), nil
}

// ExactWindowContext is WindowQueryContext: every window is exact.
func (t *RSMI) ExactWindowContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return t.WindowQueryContext(ctx, q)
}

// KNNContext is KNN honouring ctx at entry.
func (t *RSMI) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.KNN(q, k), nil
}

// ExactKNNContext is KNNContext: every kNN query is exact.
func (t *RSMI) ExactKNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return t.KNNContext(ctx, q, k)
}

// BatchPointQueryContext is PointQueryContext per element of qs.
func (t *RSMI) BatchPointQueryContext(ctx context.Context, qs []geom.Point) ([]bool, error) {
	return index.Batch(ctx, qs, t.PointQueryContext)
}

// BatchWindowQueryContext is WindowQueryContext per element of qs.
func (t *RSMI) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	return index.Batch(ctx, qs, t.WindowQueryContext)
}

// BatchKNNContext is KNNContext per element of qs.
func (t *RSMI) BatchKNNContext(ctx context.Context, qs []index.KNNQuery) ([][]geom.Point, error) {
	return index.Batch(ctx, qs, func(ctx context.Context, q index.KNNQuery) ([]geom.Point, error) {
		return t.KNNContext(ctx, q.Q, q.K)
	})
}

// InsertContext is Insert honouring ctx at entry; an admitted insert always
// completes (a half-applied update would corrupt the index). A point that
// cannot be indexed is refused with ErrNonFinitePoint.
func (t *RSMI) InsertContext(ctx context.Context, p geom.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !p.IsFinite() {
		return ErrNonFinitePoint
	}
	t.Insert(p)
	return nil
}

// DeleteContext is Delete honouring ctx at entry.
func (t *RSMI) DeleteContext(ctx context.Context, p geom.Point) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return t.Delete(p), nil
}

// RebuildContext is Rebuild honouring ctx at entry; a started rebuild runs
// to completion (the single-index rebuild swaps state atomically at the
// end, so there is no safe point to abandon it).
func (t *RSMI) RebuildContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.Rebuild()
	return nil
}
