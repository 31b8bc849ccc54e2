package shard

// Context-aware query surface (the rsmi.Engine v2 API), the only one
// Sharded has; the rolling rebuild lives in shard.go. Unlike the
// single-index core — whose queries run on one goroutine in microseconds
// and only check the context at entry — the sharded engine observes
// cancellation *during* execution: every multi-shard walk (window, kNN)
// checks the context between shard visits, and the rolling rebuild checks
// it between shard retrains. A query against a 64-shard index whose client
// disconnects after the second shard therefore stops paying for the
// remaining 62. Every query runs on the caller's goroutine.

import (
	"context"

	"rsmi/internal/core"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/obs"
)

// KNNQuery is one kNN request in a batch: up to K nearest neighbours of Q.
type KNNQuery = index.KNNQuery

// PointQueryContext reports whether a point with q's exact coordinates is
// indexed, observing ctx between candidate-shard probes. Exact: every
// indexed point lies inside its shard's region, so the candidate set
// always includes the owning shard. A trace in ctx counts the shards
// actually probed (the walk stops at the first hit).
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

// WindowQueryContext scatters the window to the shards whose region
// overlaps it and concatenates their answers in shard order (deterministic
// for a given shard layout), observing ctx between shard visits. Like the
// single-index RSMI, the answer has no false positives and may miss points
// (§4.2 semantics); ExactWindowContext is the exact variant. On
// cancellation it returns ctx's error and no points — never a partial
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

// ExactWindowContext returns the exact window answer (per-shard RSMIa
// traversal; the union over a partition is exact), observing ctx between
// shard visits.
func (s *Sharded) ExactWindowContext(ctx context.Context, q geom.Rect) ([]geom.Point, error) {
	return s.gatherWindow(ctx, nil, q, true)
}

// KNNContext returns up to k approximate nearest neighbours, closest
// first, by the best-first walk over the shards (see knn), observing ctx
// between shard searches. Results carry the same approximation guarantees
// as the single-index RSMI (§4.3); ExactKNNContext is the exact variant.
func (s *Sharded) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return s.knn(ctx, q, k, false)
}

// ExactKNNContext returns the exact k nearest neighbours: each visited
// shard answers exactly, shards are pruned only when their region provably
// cannot hold a closer point, and the merged top-k over a partition of the
// data is therefore exact. It observes ctx between shard searches.
func (s *Sharded) ExactKNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	return s.knn(ctx, q, k, true)
}

// BatchPointQueryContext is PointQueryContext per element of qs. A batch
// is not a transaction: writes may land between its queries.
func (s *Sharded) BatchPointQueryContext(ctx context.Context, qs []geom.Point) ([]bool, error) {
	return index.Batch(ctx, qs, s.PointQueryContext)
}

// BatchWindowQueryContext is WindowQueryContext per element of qs.
func (s *Sharded) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	return index.Batch(ctx, qs, s.WindowQueryContext)
}

// BatchKNNContext is KNNContext per element of qs.
func (s *Sharded) BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]geom.Point, error) {
	return index.Batch(ctx, qs, func(ctx context.Context, q KNNQuery) ([]geom.Point, error) {
		return s.KNNContext(ctx, q.Q, q.K)
	})
}

// InsertContext adds p, routing it to its owning shard and taking only
// that shard's write lock, so inserts into different shards run
// concurrently. The owner is the shard whose region needs the least
// enlargement to cover p (ties to the smaller region, then the lower shard
// id), and the chosen region is extended.
//
// ctx is honoured at entry; an admitted insert always completes (a
// half-applied update would corrupt the owning shard). A point that cannot
// be indexed is refused with core.ErrNonFinitePoint before routing reads
// (and extends) a region with it.
func (s *Sharded) InsertContext(ctx context.Context, p geom.Point) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !p.IsFinite() {
		return core.ErrNonFinitePoint
	}
	sh := s.route(p)
	sh.mu.Lock()
	sh.idx.Insert(p)
	// A new rectangle is published only when the region grows, so an
	// insert inside it allocates none.
	if r := sh.loadRegion(); !r.Contains(p) {
		sh.storeRegion(r.ExtendPoint(p))
	}
	// Under the shard lock: for any single point, hook order == apply
	// order (see hook.go).
	s.notify(WriteOp{Kind: WriteInsert, P: p})
	sh.mu.Unlock()
	return nil
}

// DeleteContext removes the point with p's exact coordinates from
// whichever shard holds it, observing ctx between candidate-shard probes.
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
