package shard

import (
	"context"
	"sync/atomic"

	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/obs"
)

// Batch execution layer. A network server amortises two per-query costs by
// batching: the HTTP/decoding overhead (amortised by its callers) and —
// implemented here for point and window batches — the shard fan-out
// overhead: instead of one lock acquisition and one worker hand-off per
// query per shard, a batch groups its queries per shard and executes each
// shard's whole group under a single read-lock acquisition with a single
// fan-out, so lock and scheduling costs are paid once per (shard, batch)
// rather than once per (shard, query). A kNN batch is not grouped: a kNN
// search costs three orders of magnitude more than a lock, and which shards
// a query needs is known only while it runs, so each query takes the
// best-first walk of KNNContext (context.go). This is the "amortise inference and traversal overhead
// across lookups" argument of "The Case for Learned Spatial Indexes"
// (Pandey et al., 2020) applied to the serving path.
//
// Batches are not transactions: concurrent updates may land between the
// per-shard group executions, exactly as they may land between individual
// queries. Each individual answer carries the same guarantees as its
// single-query counterpart.

// KNNQuery is one kNN request in a batch: up to K nearest neighbours of Q.
type KNNQuery = index.KNNQuery

// batchRef locates one query's slot inside a per-shard group: qi indexes
// the batch, slot is the position of the shard in the query's candidate
// order (so multi-shard answers can be merged deterministically).
type batchRef struct {
	qi   int
	slot int
}

// BatchPointQueryContext answers one point query per element of qs,
// grouping the probes per shard so each shard's lock is taken once per
// batch, and observing ctx between shard visits. Answers are exact and
// identical to calling PointQueryContext per element.
func (s *Sharded) BatchPointQueryContext(ctx context.Context, qs []geom.Point) ([]bool, error) {
	out := make([]bool, len(qs))
	if len(qs) == 0 {
		return out, ctx.Err()
	}
	// found uses atomics: under space partitioning overlapping regions can
	// assign one query to several shards, whose groups run concurrently.
	found := make([]atomic.Bool, len(qs))
	var cands []*state
	var groups [][]int
	pos := newShardSlots(len(s.shards))
	for qi, q := range qs {
		if s.opts.Partitioning == Hash {
			si := int(hashPoint(q) % uint64(len(s.shards)))
			p := slot(pos, si, &cands, &groups, s.shards)
			groups[p] = append(groups[p], qi)
			continue
		}
		for si, sh := range s.shards {
			if sh.loadRegion().Contains(q) {
				p := slot(pos, si, &cands, &groups, s.shards)
				groups[p] = append(groups[p], qi)
			}
		}
	}
	// A trace in ctx counts the distinct shards this batch touches.
	obs.FromContext(ctx).AddShards(len(cands))
	if err := s.fanOut(ctx, cands, func(i int, sh *state) {
		for _, qi := range groups[i] {
			//rsmi:allow ctxflow -- fanOut workers observe ctx between probes; one probe runs uninterrupted
			if !found[qi].Load() && sh.idx.PointQuery(qs[qi]) {
				found[qi].Store(true)
			}
		}
	}); err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = found[i].Load()
	}
	return out, nil
}

// BatchWindowQueryContext answers one window query per element of qs,
// grouping the queries per overlapping shard so each shard's lock is taken
// once per batch, and observing ctx between shard visits. Every answer
// equals the one WindowQueryContext would return (same approximate
// no-false-positive semantics, same deterministic shard-order
// concatenation).
func (s *Sharded) BatchWindowQueryContext(ctx context.Context, qs []geom.Rect) ([][]geom.Point, error) {
	out := make([][]geom.Point, len(qs))
	if len(qs) == 0 {
		return out, ctx.Err()
	}
	// parts[qi][slot] is query qi's answer from its slot-th candidate
	// shard; distinct cells, so group goroutines never share a slot.
	parts := make([][][]geom.Point, len(qs))
	var cands []*state
	var groups [][]batchRef
	pos := newShardSlots(len(s.shards))
	for qi, q := range qs {
		n := 0
		for si, sh := range s.shards {
			if !sh.loadRegion().Intersects(q) {
				continue
			}
			p := slot(pos, si, &cands, &groups, s.shards)
			groups[p] = append(groups[p], batchRef{qi: qi, slot: n})
			n++
		}
		parts[qi] = make([][]geom.Point, n)
	}
	// A trace in ctx counts the distinct shards this batch touches.
	obs.FromContext(ctx).AddShards(len(cands))
	if err := s.fanOut(ctx, cands, func(i int, sh *state) {
		for _, ref := range groups[i] {
			//rsmi:allow ctxflow -- fanOut workers observe ctx between probes; one probe runs uninterrupted
			parts[ref.qi][ref.slot] = sh.idx.WindowQuery(qs[ref.qi])
		}
	}); err != nil {
		return nil, err
	}
	for qi := range qs {
		var merged []geom.Point
		for _, part := range parts[qi] {
			merged = append(merged, part...)
		}
		out[qi] = merged
	}
	return out, nil
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

// shardSlots maps shard index → position in a batch's compact candidate
// list, so grouping stays O(queries × shards) without map allocations.
type shardSlots []int

func newShardSlots(n int) shardSlots {
	pos := make(shardSlots, n)
	for i := range pos {
		pos[i] = -1
	}
	return pos
}

// slot returns shard si's position in the compact candidate list, adding
// the shard (and an empty group) on first use.
func slot[G any](pos shardSlots, si int, cands *[]*state, groups *[]G, shards []*state) int {
	if pos[si] < 0 {
		pos[si] = len(*cands)
		*cands = append(*cands, shards[si])
		var zero G
		*groups = append(*groups, zero)
	}
	return pos[si]
}
