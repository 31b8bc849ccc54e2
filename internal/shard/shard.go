// Package shard scales the RSMI beyond a single goroutine by partitioning
// the data across S independent RSMI instances that serve concurrent callers
// side by side, the approach of partition-then-learn systems such as
// "The Case for Learned Spatial Indexes" (Pandey et al., 2020) and LiLIS
// (Chen et al., 2025). One query never leaves its caller's goroutine: it
// visits the shards it needs one after another, and a batch is a loop of
// single queries. Only New trains the shards in parallel.
//
// # Space partitioning
//
// New orders all points by the same rank-space curve-value technique the
// RSMI leaves use (§3.1) and cuts the ordering into S contiguous runs, so
// each shard covers a compact region of the curve and window queries touch
// few shards. Each shard's routing region is the bounding rectangle of its
// points, extended by the inserts routed to it.
//
// # Concurrency
//
// Each shard owns a sync.RWMutex: queries on one shard take its read lock
// and run in parallel with queries on every shard, while updates take only
// the owning shard's write lock, so updates on different shards proceed
// concurrently. With S = 1 this is one RWMutex over one RSMI, which
// serialises every update against all queries. RebuildContext is
// rolling: one shard retrains at a time while the rest keep serving,
// bounding the stall a periodic rebuild (§5) inflicts on live queries to a
// single shard's retraining time.
//
// Every query and write takes a context.Context (the rsmi.Engine surface);
// there are no context-free forms.
//
// # Correctness
//
// The shards partition the point set, so the per-index guarantees compose:
// point queries are exact, window queries have no false positives (each
// shard's answer has none, and the union introduces none), and
// ExactWindowContext and ExactKNNContext remain exact. A kNN query — single
// or one of a batch — searches the shards best-first on the caller's
// goroutine: nearest region first, and a further shard only while its
// region's MINDIST is still under the distance of the current k-th
// candidate.
package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rsmi/internal/core"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/obs"
	"rsmi/internal/rank"
	"rsmi/internal/store"
)

// Options configures a Sharded index. The zero value selects GOMAXPROCS
// shards and the paper-default core.Options for every shard.
type Options struct {
	// Shards is S, the number of independent RSMI instances (default
	// GOMAXPROCS, minimum 1).
	Shards int
	// Workers does nothing. It once bounded the goroutines a multi-shard
	// window or a batch fanned out to; no cell of the benchmark ledger
	// showed that fan-out winning (shard.window_shards_visited reads
	// 1.007–1.014), so every query now runs on its caller's goroutine. The
	// field stays because benchmark/workload.go sets it; it is still
	// defaulted to Shards and kept in snapshots, so no snapshot byte moves.
	Workers int
	// Index configures each shard's RSMI; the zero value selects the
	// paper's defaults, as in core.Options.
	Index core.Options
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.Workers <= 0 {
		o.Workers = o.Shards
	}
	return o
}

// state is one shard: an RSMI guarded by its own lock, plus its routing
// region. The region is always a superset of the shard's live points
// (extended on insert, never shrunk except by rebuild), so region-based
// pruning is conservative and stays correct. It lives behind an atomic
// pointer rather than the shard lock so that routing — which consults
// every shard's region — never blocks on a shard that is busy rebuilding
// or inserting; region writes happen only under mu, region reads take no
// lock at all.
type state struct {
	mu     sync.RWMutex
	idx    *core.RSMI
	region atomic.Pointer[geom.Rect]
}

// loadRegion reads the routing region without taking the shard lock.
func (sh *state) loadRegion() geom.Rect { return *sh.region.Load() }

// storeRegion publishes a new routing region; callers hold sh.mu.
func (sh *state) storeRegion(r geom.Rect) { sh.region.Store(&r) }

// Sharded is an S-way sharded RSMI. All methods are safe for concurrent
// use. Its query and write surface is the context-aware one of rsmi.Engine
// (context.go).
type Sharded struct {
	opts      Options
	shards    []*state
	buildTime time.Duration
	// hook holds the copy-on-write list of write observers (hook.go);
	// the serving layer's replication oplog and the standing-query
	// matcher both tap writes here. hookMu serialises list mutation
	// only — the write path reads the list with one atomic load.
	hook   atomic.Pointer[[]*hookEntry]
	hookMu sync.Mutex
}

// New builds a Sharded index over the points. Shard construction (model
// training included) runs in parallel. The input slice is not modified.
//
// When opts.Index.PartitionThreshold is unset, New derives a per-shard
// threshold instead of core's global default: a shard holding close to the
// default threshold N=10,000 would otherwise build as one maximal leaf,
// whose prediction error bounds are an order of magnitude looser than the
// small leaves a hierarchical build produces (scans of ±40 blocks instead
// of ±4 at harness training budgets), erasing the gains of sharding.
func New(pts []geom.Point, opts Options) *Sharded {
	pts = geom.FinitePoints(pts) // nothing else can be ordered, routed or indexed
	opts = opts.withDefaults()
	opts.Index = deriveIndexOptions(opts, len(pts))
	start := time.Now()
	s := &Sharded{opts: opts}
	parts := partition(pts, opts)
	s.shards = make([]*state, opts.Shards)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			io := opts.Index
			// Distinct seeds keep shard models independent even though every
			// shard shares one Options value.
			io.Seed += int64(i) * 7919
			sh := &state{idx: core.New(parts[i], io)}
			sh.storeRegion(geom.BoundingRect(parts[i]))
			s.shards[i] = sh
		}(i)
	}
	wg.Wait()
	s.buildTime = time.Since(start)
	return s
}

// deriveIndexOptions returns the per-shard core options: an unset
// PartitionThreshold defaults to roughly a quarter of the shard's share of
// the points, clamped to [4·B, core default], so every shard keeps a
// multi-leaf hierarchy with tight error bounds. Explicit thresholds are
// respected unchanged.
func deriveIndexOptions(opts Options, n int) core.Options {
	io := opts.Index
	if io.PartitionThreshold != 0 {
		return io
	}
	blockCap := io.BlockCapacity
	if blockCap == 0 {
		blockCap = store.DefaultBlockCapacity
	}
	per := (n + opts.Shards - 1) / opts.Shards
	thr := per / 4
	if min := 4 * blockCap; thr < min {
		thr = min
	}
	if thr > core.DefaultPartitionThreshold {
		thr = core.DefaultPartitionThreshold
	}
	io.PartitionThreshold = thr
	return io
}

// partition assigns pts to opts.Shards groups: contiguous runs of the
// rank-space curve ordering (§3.1), the same ordering RSMI leaves pack
// blocks in.
func partition(pts []geom.Point, opts Options) [][]geom.Point {
	parts := make([][]geom.Point, opts.Shards)
	ordered := rank.Order(pts, opts.Index.Curve)
	per := (len(ordered) + opts.Shards - 1) / opts.Shards
	if per == 0 {
		per = 1
	}
	for i := range parts {
		lo := i * per
		if lo > len(ordered) {
			lo = len(ordered)
		}
		hi := lo + per
		if hi > len(ordered) {
			hi = len(ordered)
		}
		parts[i] = ordered[lo:hi]
	}
	return parts
}

// NumShards returns S.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Options returns the (defaulted) options the index was built with.
func (s *Sharded) Options() Options { return s.opts }

// Name identifies the engine in stats and bench reports.
func (s *Sharded) Name() string { return "Sharded" }

// String summarises the index.
func (s *Sharded) String() string {
	return fmt.Sprintf("Sharded{shards=%d n=%d}", len(s.shards), s.Len())
}

// pointCandidate returns the index of the first shard at or after from that
// may hold a point with exactly p's coordinates — one whose region contains
// p (regions can overlap once inserts have extended them) — or -1.
func (s *Sharded) pointCandidate(p geom.Point, from int) int {
	for i := from; i < len(s.shards); i++ {
		if s.shards[i].loadRegion().Contains(p) {
			return i
		}
	}
	return -1
}

// route picks the insert target: the shard whose region needs the least
// enlargement, ties to the smaller region, then the lower shard id. Empty
// shards are considered only when every shard is empty.
func (s *Sharded) route(p geom.Point) *state {
	var best *state
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for _, sh := range s.shards {
		r := sh.loadRegion()
		if r.IsEmpty() {
			continue
		}
		enl := r.Enlargement(geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
		area := r.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = sh, enl, area
		}
	}
	if best == nil {
		best = s.shards[0]
	}
	return best
}

// windowCandidates returns the index of the first shard whose region
// intersects q and the number of shards whose region does.
func (s *Sharded) windowCandidates(q geom.Rect) (first, n int) {
	for i, sh := range s.shards {
		if sh.loadRegion().Intersects(q) {
			if n == 0 {
				first = i
			}
			n++
		}
	}
	return first, n
}

// appendWindow appends the shard's window answer (exact or Algorithm 2's) to
// dst. Callers hold sh.mu.
func (sh *state) appendWindow(ctx context.Context, dst []geom.Point, q geom.Rect, exact bool) ([]geom.Point, error) {
	if !exact {
		return sh.idx.WindowQueryAppend(ctx, dst, q)
	}
	got, err := sh.idx.ExactWindowContext(ctx, q)
	return append(dst, got...), err
}

// gatherWindow appends the answers of the shards whose region overlaps q to
// dst (which may be nil), in shard order, on the caller's goroutine: each
// shard appends straight into dst under its read lock. A context cancelled
// mid-query stops between shard visits and returns (dst, ctx.Err()):
// partial answers are never surfaced.
func (s *Sharded) gatherWindow(ctx context.Context, dst []geom.Point, q geom.Rect, exact bool) ([]geom.Point, error) {
	first, n := s.windowCandidates(q)
	// A trace in ctx (EXPLAIN / slow-query sampling) counts the shards
	// whose region overlapped the window — the query's fan-out width.
	obs.FromContext(ctx).AddShards(n)
	if n == 0 {
		return dst, ctx.Err()
	}
	out := dst
	for _, sh := range s.shards[first:] {
		if !sh.loadRegion().Intersects(q) {
			continue
		}
		sh.mu.RLock()
		var err error
		out, err = sh.appendWindow(ctx, out, q, exact)
		sh.mu.RUnlock()
		if err != nil {
			return dst, err
		}
	}
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	return out, nil
}

// shardDist is a shard with the squared MINDIST from a query point to its
// region.
type shardDist struct {
	sh    *state
	dist2 float64
}

// shardsByDist appends the non-empty shards to order by ascending MINDIST
// from q to their region (ties in shard order). The shard list is tiny, so
// this is an insertion sort.
func (s *Sharded) shardsByDist(q geom.Point, order []shardDist) []shardDist {
	for _, sh := range s.shards {
		r := sh.loadRegion()
		if r.IsEmpty() {
			continue
		}
		d := r.MinDist2(q)
		i := len(order)
		order = append(order, shardDist{})
		for ; i > 0 && order[i-1].dist2 > d; i-- {
			order[i] = order[i-1]
		}
		order[i] = shardDist{sh, d}
	}
	return order
}

// knn is the one best-first multi-shard kNN routine behind KNNContext,
// ExactKNNContext and every query of a kNN batch. The search runs on the
// caller's goroutine: shards are searched in MINDIST order of their
// regions, and the search stops at the first shard whose region is no
// closer than the k-th best candidate found so far — no later shard can
// improve the answer either. Cancellation is observed between shard
// searches: once ctx is done no further shard is searched and ctx's error is
// returned. A trace in ctx counts the shards actually searched (pruned
// shards excluded) — the number EXPLAIN shows for kNN.
func (s *Sharded) knn(ctx context.Context, q geom.Point, k int, exact bool) ([]geom.Point, error) {
	if k <= 0 {
		return nil, ctx.Err()
	}
	var buf [16]shardDist
	var best []geom.Point
	searched := 0
	for _, c := range s.shardsByDist(q, buf[:0]) {
		// Once k candidates exist, a shard whose region is no closer than the
		// k-th cannot improve the answer — nor can any shard after it.
		if len(best) == k && c.dist2 >= q.Dist2(best[k-1]) {
			break
		}
		if ctx.Err() != nil {
			break
		}
		searched++
		c.sh.mu.RLock()
		var got []geom.Point
		var err error
		if exact {
			got, err = c.sh.idx.ExactKNNContext(ctx, q, k)
		} else {
			got, err = c.sh.idx.KNNContext(ctx, q, k)
		}
		c.sh.mu.RUnlock()
		if err != nil {
			break
		}
		best = mergeNearest(best, got, q, k)
	}
	obs.FromContext(ctx).AddShards(searched)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return best, nil
}

// mergeNearest folds one shard's answer (ascending by distance to q) into
// best, the at most k nearest points found so far, kept ascending by
// distance with equidistant points in canonical order — the order
// index.SortByDistance gives. The first shard's answer arrives in order, so
// every insertion stops at the tail; later shards are searched only if they
// can still improve the answer.
func mergeNearest(best, got []geom.Point, q geom.Point, k int) []geom.Point {
	if best == nil {
		best = make([]geom.Point, 0, len(got))
	}
	for _, p := range got {
		d := q.Dist2(p)
		before := func(o geom.Point) bool {
			od := q.Dist2(o)
			return d < od || (d == od && p.Less(o))
		}
		i := len(best)
		if i == k {
			if !before(best[k-1]) {
				continue
			}
			i--
		} else {
			best = append(best, p)
		}
		for ; i > 0 && before(best[i-1]); i-- {
			best[i] = best[i-1]
		}
		best[i] = p
	}
	return best
}

// RebuildContext retrains every shard from its current live points as a
// rolling rebuild: shards rebuild one at a time behind their own write
// lock, so queries and updates on every other shard keep flowing while one
// shard retrains — unlike the global-RWMutex design, where a rebuild stalls
// the whole service for the full retraining time (§5 prescribes periodic
// rebuilds under sustained updates). Each shard keeps its current points
// (the partition assignment does not change) and its region is recomputed,
// tightening routing after deletions.
//
// A cancelled ctx stops the rebuild before the next shard retrains. Shards
// already rebuilt stay rebuilt (each swap is atomic under the shard lock),
// so an aborted rebuild never leaves the index inconsistent — merely
// partially retrained, and a later rebuild finishes the job.
func (s *Sharded) RebuildContext(ctx context.Context) error {
	for i, sh := range s.shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		sh.mu.Lock()
		pts := sh.idx.AllPoints()
		io := s.opts.Index
		io.Seed += int64(i) * 7919
		sh.idx = core.New(pts, io)
		sh.storeRegion(geom.BoundingRect(pts))
		sh.mu.Unlock()
	}
	s.notify(WriteOp{Kind: WriteRebuild})
	return nil
}

// Len returns the number of live points across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.idx.Len()
		sh.mu.RUnlock()
	}
	return n
}

// Accesses returns the total block accesses across shards.
func (s *Sharded) Accesses() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.idx.Accesses()
		sh.mu.RUnlock()
	}
	return n
}

// ResetAccesses zeroes every shard's block-access counter.
func (s *Sharded) ResetAccesses() {
	for _, sh := range s.shards {
		sh.mu.RLock()
		sh.idx.ResetAccesses()
		sh.mu.RUnlock()
	}
}

// Stats aggregates structural statistics over shards: sizes, blocks and
// model counts sum; the height is the tallest shard's; BuildTime is the
// wall-clock parallel build time.
func (s *Sharded) Stats() index.Stats {
	out := index.Stats{Name: s.Name(), BuildTime: s.buildTime}
	for _, sh := range s.shards {
		sh.mu.RLock()
		st := sh.idx.Stats()
		sh.mu.RUnlock()
		out.SizeBytes += st.SizeBytes
		out.Blocks += st.Blocks
		out.Models += st.Models
		if st.Height > out.Height {
			out.Height = st.Height
		}
		if st.ErrLow > out.ErrLow {
			out.ErrLow = st.ErrLow
		}
		if st.ErrHigh > out.ErrHigh {
			out.ErrHigh = st.ErrHigh
		}
	}
	return out
}

// ShardStats returns per-shard statistics, useful for balance inspection.
func (s *Sharded) ShardStats() []index.Stats {
	out := make([]index.Stats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		out[i] = sh.idx.Stats()
		sh.mu.RUnlock()
	}
	return out
}
