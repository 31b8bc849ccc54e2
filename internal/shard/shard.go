// Package shard scales the RSMI beyond a single goroutine by partitioning
// the data across S independent RSMI instances that serve concurrent callers
// side by side, the approach of partition-then-learn systems such as
// "The Case for Learned Spatial Indexes" (Pandey et al., 2020) and LiLIS
// (Chen et al., 2025). One query never leaves its caller's goroutine: it
// visits the shards it needs one after another, and a batch is a loop of
// single queries. Only New builds the shards in parallel.
//
// # Space partitioning
//
// New orders all points by the same rank-space curve-value technique the
// RSMI leaves use (§3.1) and cuts the ordering into S contiguous runs, so
// each shard covers a compact region of the curve and window queries touch
// few shards. Each shard's routing region is its index's root MBR
// (core.RSMI.Bounds): the bounding rectangle of its points, extended by the
// inserts routed to it.
//
// # Concurrency
//
// Each shard owns a sync.RWMutex: queries on one shard take its read lock
// and run in parallel with queries on every shard, while updates take only
// the owning shard's write lock, so updates on different shards proceed
// concurrently. With S = 1 this is one RWMutex over one RSMI, which
// serialises every update against all queries. RebuildContext is
// rolling: one shard rebuilds at a time while the rest keep serving,
// bounding the stall a periodic rebuild (§5) inflicts on live queries to a
// single shard's build time.
//
// Every query and write takes a context.Context (the rsmi.Engine surface);
// there are no context-free forms.
//
// # Correctness
//
// The shards partition the point set, so the per-index guarantees compose.
// Point queries are exact, and so are windows and kNN, which every shard's
// index answers by RSMIa's MBR walk (§4.2 end, §6.2.3; README, "RSMI
// answers windows and kNN by the MBR walk"). The Exact methods are the same
// calls.
// A window appends each overlapping shard's answer in shard order; a kNN
// query — single or one of a batch — searches the shards best-first on the
// caller's goroutine: nearest region first, and a further shard only while
// its region's MINDIST is within the distance of the current k-th
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
	// field stays because benchmark/workload.go sets it (ROADMAP item 1);
	// nothing reads it.
	Workers int
	// Index configures each shard's RSMI; the zero value selects the
	// paper's defaults, as in core.Options.
	Index core.Options
}

// state is one shard: an RSMI guarded by its own lock, plus its routing
// region, the index's root MBR (core.RSMI.Bounds). The region covers the
// shard's live points (extended on insert, shrunk only by a rebuild or a
// root leaf's repack, which recompute it from the points), so region-based
// pruning is conservative and stays correct. A copy of it lives behind an
// atomic pointer rather than the shard lock so that routing — which
// consults every shard's region — never blocks on a shard that is busy
// rebuilding or inserting; the copy is published under mu after every
// write that can move the MBR, and region reads take no lock at all.
type state struct {
	mu     sync.RWMutex
	idx    *core.RSMI
	region atomic.Pointer[geom.Rect]
}

// newState wraps a built or loaded index as a shard.
func newState(idx *core.RSMI) *state {
	sh := &state{idx: idx}
	sh.storeRegion(idx.Bounds())
	return sh
}

// loadRegion reads the routing region without taking the shard lock.
func (sh *state) loadRegion() geom.Rect { return *sh.region.Load() }

// storeRegion publishes a new routing region; callers hold sh.mu.
func (sh *state) storeRegion(r geom.Rect) { sh.region.Store(&r) }

// Sharded is an S-way sharded RSMI. All methods are safe for concurrent
// use. Its query and write surface is the context-aware one of rsmi.Engine
// (context.go).
type Sharded struct {
	shards    []*state
	buildTime time.Duration
	// hook holds the copy-on-write list of write observers (hook.go);
	// the serving layer's replication oplog and the standing-query
	// matcher both tap writes here. hookMu serialises list mutation
	// only — the write path reads the list with one atomic load.
	hook   atomic.Pointer[[]*hookEntry]
	hookMu sync.Mutex
}

// New builds a Sharded index over the points. It cuts them into S runs of
// the rank-space curve ordering (§3.1), the same ordering RSMI leaves pack
// blocks in, each with its points' ranks among them (rank.Runs). Shard
// construction runs in parallel, each shard building in place from its run
// and ranking nothing again. The runs share one fresh slice, each capped at
// its own end, so a build that reorders its run in place reaches no other.
// The input slice is not modified.
//
// When opts.Index.PartitionThreshold is unset, New derives a per-shard
// threshold instead of core's global default: a shard holding close to the
// default threshold N=10,000 would otherwise build as one maximal leaf, whose
// cells, at most 8 × 8, would each span several blocks where the leaves of a
// hierarchical build keep a cell to a block or two.
func New(pts []geom.Point, opts Options) *Sharded {
	pts = geom.FinitePoints(pts) // nothing else can be ordered, routed or indexed
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	opts.Index = deriveIndexOptions(opts, len(pts))
	start := time.Now()
	s := &Sharded{shards: make([]*state, opts.Shards)}
	parts := rank.Runs(pts, opts.Index.Curve, opts.Shards)
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.shards[i] = newState(core.NewRanked(part.Points, part.RX, part.RY, opts.Index))
		}()
	}
	wg.Wait()
	s.buildTime = time.Since(start)
	return s
}

// deriveIndexOptions returns the per-shard core options: an unset
// PartitionThreshold defaults to roughly a quarter of the shard's share of
// the points, clamped to [4·B, core default], so every shard keeps a
// multi-leaf hierarchy whose cells span a block or two. Explicit thresholds
// are respected unchanged.
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

// NumShards returns S.
func (s *Sharded) NumShards() int { return len(s.shards) }

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

// gatherWindow appends the exact answers of the shards whose region
// overlaps q to dst (which may be nil), in shard order, on the caller's
// goroutine: each shard appends straight into dst under its read lock. A
// context cancelled mid-query stops between shard visits and returns
// (dst, ctx.Err()): partial answers are never surfaced.
func (s *Sharded) gatherWindow(ctx context.Context, dst []geom.Point, q geom.Rect) ([]geom.Point, error) {
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
		out, err = sh.idx.WindowQueryAppend(ctx, out, q)
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

// KNNContext returns the exact k nearest neighbours, closest first, ties in
// the canonical point order, observing ctx between shard searches. The
// search runs on the caller's goroutine: shards are searched in MINDIST
// order of their regions by RSMIa's best-first walk (core.RSMI.KNNInto),
// all offering into one index.Nearest, so a later shard expands only what
// could displace a candidate already held; the search stops at the first
// shard whose region is farther than the k-th candidate, as every later
// one is. A query allocates only its answer. Once ctx is done no
// further shard is searched and ctx's error is returned. A trace in ctx
// counts the shards actually searched, pruned ones excluded: the number
// EXPLAIN shows for kNN.
//
//rsmi:noalloc
func (s *Sharded) KNNContext(ctx context.Context, q geom.Point, k int) ([]geom.Point, error) {
	if k <= 0 || !q.IsFinite() {
		return nil, ctx.Err()
	}
	var buf [16]shardDist
	best := index.NewNearest(q, k)
	searched := 0
	for _, c := range s.shardsByDist(q, buf[:0]) {
		// A shard exactly at the k-th distance is still searched: it may
		// hold an equidistant point that comes first in the canonical order.
		if best.Full() && c.dist2 > best.Bound() || ctx.Err() != nil {
			break
		}
		searched++
		c.sh.mu.RLock()
		c.sh.idx.KNNInto(&best)
		c.sh.mu.RUnlock()
	}
	obs.FromContext(ctx).AddShards(searched)
	out := best.Points()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// RebuildContext rebuilds every shard from its current live points as a
// rolling rebuild: shards rebuild one at a time behind their own write
// lock, so queries and updates on every other shard keep flowing while one
// shard rebuilds — unlike the global-RWMutex design, where a rebuild stalls
// the whole service for the full build time (§5 prescribes periodic
// rebuilds under sustained updates). Each shard keeps its current points
// (the partition assignment does not change) and its own index's options,
// and its region is recomputed, tightening routing after deletions.
//
// A cancelled ctx stops the rebuild before the next shard rebuilds. Shards
// already rebuilt stay rebuilt (each swap is atomic under the shard lock),
// so an aborted rebuild never leaves the index inconsistent — merely
// partially rebuilt, and a later rebuild finishes the job.
func (s *Sharded) RebuildContext(ctx context.Context) error {
	for _, sh := range s.shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		sh.mu.Lock()
		sh.idx = core.NewOwned(sh.idx.AllPoints(), sh.idx.Options()) // AllPoints' copy is the build's own
		sh.storeRegion(sh.idx.Bounds())
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
