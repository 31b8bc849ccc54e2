package shard

// Context-aware query surface (the rsmi.Engine v2 API). Unlike the
// single-index core — whose queries run on one goroutine in microseconds
// and only check the context at entry — the sharded engine observes
// cancellation *during* execution: every multi-shard walk (window, kNN, the
// batch variants) checks the context between shard visits, and the rolling
// rebuild checks it between shard retrains. A query against a 64-shard
// index whose client disconnects after the second shard therefore stops
// paying for the remaining 62.
//
// The context-free methods (PointQuery, WindowQuery, …) remain as thin
// compatibility wrappers over these with context.Background().

import (
	"context"

	"rsmi/internal/core"
	"rsmi/internal/geom"
	"rsmi/internal/obs"
)

// PointQueryContext is PointQuery observing ctx between candidate-shard
// probes. A trace in ctx counts the shards actually probed (the walk
// stops at the first hit).
//
//rsmi:noalloc
func (s *Sharded) PointQueryContext(ctx context.Context, q geom.Point) (bool, error) {
	probed, found := 0, false
	for i := s.pointCandidate(q, 0); i >= 0 && ctx.Err() == nil; i = s.pointCandidate(q, i+1) {
		sh := s.shards[i]
		probed++
		sh.mu.RLock()
		found = sh.idx.PointQuery(q)
		sh.mu.RUnlock()
		if found {
			break
		}
	}
	obs.FromContext(ctx).AddShards(probed)
	if found {
		return true, nil
	}
	return false, ctx.Err()
}

// WindowQueryContext is WindowQuery observing ctx between shard visits.
// On cancellation it returns ctx's error and no points — never a partial
// answer.
func (s *Sharded) WindowQueryContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return s.gatherWindow(ctx, nil, q, false)
}

// WindowQueryAppend is WindowQueryContext appending the answer to dst and
// returning the extended slice, for callers that reuse result buffers
// across queries: a window whose candidate shards are searched on the
// caller's goroutine (see gatherWindow) allocates only if dst must grow.
// On error dst is returned unextended.
//
//rsmi:noalloc
func (s *Sharded) WindowQueryAppend(ctx context.Context, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
	return s.gatherWindow(ctx, dst, q, false)
}

// ExactWindowContext is ExactWindow observing ctx between shard visits.
func (s *Sharded) ExactWindowContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return s.gatherWindow(ctx, nil, q, true)
}

// KNNContext is KNN observing ctx between shard searches of the best-first
// walk.
func (s *Sharded) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return s.knn(ctx, q, k, false)
}

// ExactKNNContext is ExactKNN observing ctx between shard searches.
func (s *Sharded) ExactKNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return s.knn(ctx, q, k, true)
}

// BatchPointQueryContext is BatchPointQuery observing ctx between shard
// visits.
func (s *Sharded) BatchPointQueryContext(ctx context.Context, qs []geom.Point) ([]bool, error) {
	return s.batchPointQuery(ctx, qs)
}

// BatchWindowQueryContext is BatchWindowQuery observing ctx between shard
// visits.
func (s *Sharded) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	return s.batchWindowQuery(ctx, qs)
}

// BatchKNNContext answers one kNN query per element of qs, each exactly as
// KNNContext would — the same best-first walk over the shards, so a query
// deep inside one shard's region searches that shard alone — observing ctx
// between shard searches. A trace in ctx counts the shards searched, summed
// over the batch's queries. Answers are real indexed points, closest first,
// at most min(k, Len) of them (k <= 0 yields nil).
func (s *Sharded) BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]geom.Point, error) {
	out := make([][]geom.Point, len(qs))
	for i, q := range qs {
		got, err := s.knn(ctx, q.Q, q.K, false)
		if err != nil {
			return nil, err
		}
		out[i] = got
	}
	return out, ctx.Err()
}

// InsertContext is Insert honouring ctx at entry; an admitted insert
// always completes (a half-applied update would corrupt the owning shard).
// A point that cannot be indexed is refused with core.ErrNonFinitePoint.
func (s *Sharded) InsertContext(ctx context.Context, p geom.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !p.IsFinite() {
		return core.ErrNonFinitePoint
	}
	s.Insert(p)
	return nil
}

// DeleteContext is Delete observing ctx between candidate-shard probes.
// A trace in ctx counts the shards probed.
func (s *Sharded) DeleteContext(ctx context.Context, p geom.Point) (bool, error) {
	probed, ok := 0, false
	for i := s.pointCandidate(p, 0); i >= 0 && ctx.Err() == nil; i = s.pointCandidate(p, i+1) {
		sh := s.shards[i]
		probed++
		sh.mu.Lock()
		if ok = sh.idx.Delete(p); ok {
			s.notify(WriteOp{Kind: WriteDelete, P: p})
		}
		sh.mu.Unlock()
		if ok {
			break
		}
	}
	obs.FromContext(ctx).AddShards(probed)
	if ok {
		return true, nil
	}
	return false, ctx.Err()
}

// RebuildContext is the rolling rebuild observing ctx between shards: a
// cancelled context stops before the next shard retrains. Shards already
// rebuilt stay rebuilt — the index is never inconsistent, merely partially
// retrained, and a later rebuild finishes the job.
func (s *Sharded) RebuildContext(ctx context.Context) error {
	return s.rebuild(ctx)
}
