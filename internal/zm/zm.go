// Package zm implements the ZM (Z-order model) baseline of §6.1 [46]: points
// are ordered by the Z-values of their coordinates on a fixed grid, and a
// three-level recursive model index (1, √(n/B²), and n/B² sub-models per
// level) learns the CDF from Z-value to rank, RMI-style [26].
//
// Query processing follows the paper's description: a point query predicts a
// block from the query's Z-value and scans the error-bounded range, using
// binary search over the blocks' Z-value ranges to skip blocks ("binary
// search on the Z-values is used to reduce the number of block accesses",
// §6.2.2). Window queries map the window's bottom-left and top-right corners
// to Z-values, which bound the Z-values of all points inside the window.
// ZM has no kNN or update algorithms of its own; the paper adapts RSMI's
// (§6.2.4, §6.2.5), as does this package.
package zm

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"rsmi/internal/cdf"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/mlp"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// DefaultGridOrder fixes the Z-value grid at 2^16 × 2^16 cells, the
// granularity regime of the original Z-order model.
const DefaultGridOrder = 16

// Options configures ZM construction.
type Options struct {
	// BlockCapacity is B (default 100).
	BlockCapacity int
	// GridOrder is the Z-curve order (default 16).
	GridOrder uint
	// LearningRate, Epochs, TargetLoss configure model training (defaults
	// match the paper: 0.01 / 500).
	LearningRate float64
	Epochs       int
	TargetLoss   float64
	// Gamma and Delta configure the kNN skew estimation adapted from RSMI.
	Gamma int
	Delta float64
	// Seed drives deterministic training.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.BlockCapacity == 0 {
		o.BlockCapacity = store.DefaultBlockCapacity
	}
	if o.GridOrder == 0 {
		o.GridOrder = DefaultGridOrder
	}
	if o.LearningRate == 0 {
		o.LearningRate = mlp.DefaultLearningRate
	}
	if o.Epochs == 0 {
		o.Epochs = mlp.DefaultEpochs
	}
	if o.Gamma == 0 {
		o.Gamma = cdf.DefaultGamma
	}
	if o.Delta == 0 {
		o.Delta = cdf.DefaultDelta
	}
	return o
}

// ZM is the Z-order model index.
type ZM struct {
	opts  Options
	store *store.Manager
	curve sfc.Curve
	norm  geom.Rect

	// zMin/zMax are the immutable build-time Z ranges of each base block
	// (monotone, so binary search navigates them). extMin/extMax cover the
	// block plus its overflow chain (extended by inserts) and are used
	// only as a conservative scan filter.
	zMin, zMax     []uint64
	extMin, extMax []uint64

	root   *mlp.Network
	mid    []*mlp.Network
	leafs  []*mlp.Network
	errUp  []int // per-leaf-model under-prediction bound (scan upward)
	errDn  []int // per-leaf-model over-prediction bound (scan downward)
	m1, m2 int

	n          int // live points
	buildN     int // points at build time (fixes the rank→block mapping)
	baseBlocks int
	maxZ       float64

	pmfX, pmfY *cdf.PMF
	built      time.Duration
}

var _ index.Index = (*ZM)(nil)

// New builds a ZM index over the points.
func New(pts []geom.Point, opts Options) *ZM {
	opts = opts.withDefaults()
	start := time.Now()
	z := &ZM{
		opts:   opts,
		store:  store.NewManager(opts.BlockCapacity),
		curve:  sfc.New(sfc.Z, opts.GridOrder),
		norm:   geom.BoundingRect(pts),
		n:      len(pts),
		buildN: len(pts),
		maxZ:   float64(uint64(1)<<(2*opts.GridOrder) - 1),
	}
	if len(pts) == 0 {
		z.built = time.Since(start)
		return z
	}

	// Order points by Z-value (stable on coordinates for determinism).
	type zp struct {
		z uint64
		p geom.Point
	}
	zps := make([]zp, len(pts))
	for i, p := range pts {
		zps[i] = zp{z.zvalue(p), p}
	}
	slices.SortFunc(zps, func(a, b zp) int {
		return cmp.Or(cmp.Compare(a.z, b.z), a.p.Compare(b.p))
	})
	ordered := make([]geom.Point, len(zps))
	keys := make([]float64, len(zps))
	for i, e := range zps {
		ordered[i] = e.p
		keys[i] = float64(e.z) / z.maxZ
	}
	first, count := z.store.Pack(ordered)
	_ = first
	z.baseBlocks = count
	z.zMin = make([]uint64, count)
	z.zMax = make([]uint64, count)
	b := z.store.Capacity()
	for i := range zps {
		blk := i / b
		if i%b == 0 {
			z.zMin[blk] = zps[i].z
		}
		z.zMax[blk] = zps[i].z
	}
	z.extMin = append([]uint64(nil), z.zMin...)
	z.extMax = append([]uint64(nil), z.zMax...)

	z.train(keys)

	// kNN skew estimation (adapted from RSMI, §6.2.4).
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	z.pmfX = cdf.New(xs, opts.Gamma)
	z.pmfY = cdf.New(ys, opts.Gamma)
	z.built = time.Since(start)
	return z
}

// zvalue maps p to its grid Z-value ("a query point is first mapped to its
// Z-value by interleaving the bits of its coordinates", §2).
func (z *ZM) zvalue(p geom.Point) uint64 {
	side := float64(z.curve.Side() - 1)
	nx, ny := 0.5, 0.5
	if dx := z.norm.MaxX - z.norm.MinX; dx > 0 {
		nx = clamp01((p.X - z.norm.MinX) / dx)
	}
	if dy := z.norm.MaxY - z.norm.MinY; dy > 0 {
		ny = clamp01((p.Y - z.norm.MinY) / dy)
	}
	return z.curve.Value(uint32(nx*side), uint32(ny*side))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// train fits the three-level RMI: keys are normalised Z-values, targets are
// normalised ranks. Level sizes follow §6.1: 1, √(n/B²), n/B².
func (z *ZM) train(keys []float64) {
	n := len(keys)
	b := z.store.Capacity()
	z.m2 = (n + b*b - 1) / (b * b)
	if z.m2 < 1 {
		z.m2 = 1
	}
	z.m1 = int(math.Round(math.Sqrt(float64(z.m2))))
	if z.m1 < 1 {
		z.m1 = 1
	}
	ranks := make([]float64, n)
	if n > 1 {
		for i := range ranks {
			ranks[i] = float64(i) / float64(n-1)
		}
	}
	cfg := func(seed int64, classes int) mlp.Config {
		return mlp.Config{
			Inputs:       1,
			Hidden:       mlp.HiddenFor(1, classes),
			LearningRate: z.opts.LearningRate,
			Epochs:       z.opts.Epochs,
			TargetLoss:   z.opts.TargetLoss,
			Seed:         z.opts.Seed + seed,
		}
	}

	// Level 0: a single model over everything.
	c0 := cfg(1, z.m1)
	z.root = mlp.New(c0)
	z.root.Train(c0, keys, ranks)

	// Stage-wise assignment to level 1, then level 2 (RMI training, §2).
	assign1 := make([][]int, z.m1)
	for i, k := range keys {
		mi := modelIndex(z.root.Predict([]float64{k}), z.m1)
		assign1[mi] = append(assign1[mi], i)
	}
	z.mid = make([]*mlp.Network, z.m1)
	assign2 := make([][]int, z.m2)
	for mi, idxs := range assign1 {
		c := cfg(int64(2+mi), z.m2)
		z.mid[mi] = mlp.New(c)
		if len(idxs) > 0 {
			xs := make([]float64, len(idxs))
			ys := make([]float64, len(idxs))
			for j, i := range idxs {
				xs[j], ys[j] = keys[i], ranks[i]
			}
			z.mid[mi].Train(c, xs, ys)
		}
		for _, i := range idxs {
			li := modelIndex(z.mid[mi].Predict([]float64{keys[i]}), z.m2)
			assign2[li] = append(assign2[li], i)
		}
	}

	// Level 2 (leaf models) with per-model error bounds in blocks.
	z.leafs = make([]*mlp.Network, z.m2)
	z.errUp = make([]int, z.m2)
	z.errDn = make([]int, z.m2)
	for li, idxs := range assign2 {
		c := cfg(int64(100+li), z.baseBlocks)
		z.leafs[li] = mlp.New(c)
		if len(idxs) == 0 {
			continue
		}
		xs := make([]float64, len(idxs))
		ys := make([]float64, len(idxs))
		for j, i := range idxs {
			xs[j], ys[j] = keys[i], ranks[i]
		}
		z.leafs[li].Train(c, xs, ys)
		for _, i := range idxs {
			blk := i / b
			pred := z.blockOf(z.leafs[li].Predict([]float64{keys[i]}))
			switch {
			case pred < blk && blk-pred > z.errUp[li]:
				z.errUp[li] = blk - pred
			case pred > blk && pred-blk > z.errDn[li]:
				z.errDn[li] = pred - blk
			}
		}
	}
}

// modelIndex maps a predicted rank to a model index at a level with m
// models.
func modelIndex(pred float64, m int) int {
	i := int(pred * float64(m))
	if i < 0 {
		return 0
	}
	if i >= m {
		return m - 1
	}
	return i
}

// blockOf converts a predicted rank to a block id. The mapping is anchored
// to the build-time cardinality: ranks were learned against it, and the base
// block layout never changes afterwards.
func (z *ZM) blockOf(pred float64) int {
	blk := int(clamp01(pred) * float64(z.buildN-1) / float64(z.store.Capacity()))
	if blk < 0 {
		return 0
	}
	if blk >= z.baseBlocks {
		return z.baseBlocks - 1
	}
	return blk
}

// locate predicts the block for Z-value zv and its error-bounded base-block
// scan range.
func (z *ZM) locate(zv uint64) (blk, lo, hi int) {
	key := float64(zv) / z.maxZ
	mi := modelIndex(z.root.Predict([]float64{key}), z.m1)
	li := modelIndex(z.mid[mi].Predict([]float64{key}), z.m2)
	blk = z.blockOf(z.leafs[li].Predict([]float64{key}))
	lo = blk - z.errDn[li]
	hi = blk + z.errUp[li]
	if lo < 0 {
		lo = 0
	}
	if hi >= z.baseBlocks {
		hi = z.baseBlocks - 1
	}
	return blk, lo, hi
}

// narrow shrinks the error-bounded range [lo, hi] to the blocks that can
// hold Z-value zv, using binary search over the blocks' build-time Z ranges
// — the "binary search on the Z-values ... to reduce the number of block
// accesses" of §6.2.2. Each probe reads a block (counted): in the
// external-memory cost model the comparison key lives in the block, which
// is why the paper's ZM shows higher access counts than RSMI while staying
// fast per block.
//
// The result covers every build-time block whose range contains zv, plus
// the single block whose overflow chain receives zv on insertion (the last
// block with zMin <= zv), so point queries after inserts stay exact.
func (z *ZM) narrow(lo, hi int, zv uint64) (int, int) {
	if lo > hi {
		return lo, hi
	}
	probe := func(i int) { z.store.Read(i) }
	// First block in [lo, hi] with zMax >= zv.
	a, b := lo, hi
	for a < b {
		mid := (a + b) / 2
		probe(mid)
		if z.zMax[mid] >= zv {
			b = mid
		} else {
			a = mid + 1
		}
	}
	first := a
	// Last block in [lo, hi] with zMin <= zv (the insertion target).
	a, b = lo, hi
	for a < b {
		mid := (a + b + 1) / 2
		probe(mid)
		if z.zMin[mid] <= zv {
			a = mid
		} else {
			b = mid - 1
		}
	}
	last := a
	if z.zMin[last] > zv {
		// zv precedes every block in range; the first block is the only
		// candidate chain.
		last = first
	}
	if first > last {
		// zv falls in the gap after `last`: its chain is the only
		// candidate.
		first = last
	}
	return first, last
}

// Name implements index.Index with the paper's label.
func (z *ZM) Name() string { return "ZM" }

// PointQuery implements index.Index. No false negatives.
func (z *ZM) PointQuery(q geom.Point) bool {
	_, _, found := z.findPoint(q)
	return found
}

func (z *ZM) findPoint(q geom.Point) (blockID, slot int, found bool) {
	if z.n == 0 {
		return 0, 0, false
	}
	zv := z.zvalue(q)
	_, lo, hi := z.locate(zv)
	lo, hi = z.narrow(lo, hi, zv)
	z.scanRange(lo, hi, func(b *store.Block, base int) bool {
		if i := b.Find(q); i >= 0 {
			blockID, slot, found = b.ID, i, true
			return false
		}
		return true
	})
	return blockID, slot, found
}

// scanRange walks base blocks [begin, end] and their overflow chains.
func (z *ZM) scanRange(begin, end int, fn func(b *store.Block, base int) bool) {
	if begin > end || begin < 0 || z.baseBlocks == 0 {
		return
	}
	if end >= z.baseBlocks {
		end = z.baseBlocks - 1
	}
	cur := begin
	base := begin
	for cur != store.NilBlock {
		b := z.store.Read(cur)
		if b == nil {
			return
		}
		if !b.Inserted {
			base = b.ID
		}
		if !fn(b, base) {
			return
		}
		next := b.Next
		if next == store.NilBlock {
			return
		}
		nb := z.store.Peek(next)
		if !nb.Inserted && nb.ID > end {
			return
		}
		cur = next
	}
}

// WindowQuery implements Algorithm 2 with Z-curve corners: the bottom-left
// and top-right corners carry the window's minimum and maximum Z-values
// (§4.2), which bound every point inside. No false positives.
func (z *ZM) WindowQuery(q geom.Rect) []geom.Point {
	if z.n == 0 {
		return nil
	}
	zlo := z.zvalue(geom.Pt(q.MinX, q.MinY))
	zhi := z.zvalue(geom.Pt(q.MaxX, q.MaxY))
	_, lo, _ := z.locate(zlo)
	_, _, hi := z.locate(zhi)
	if hi < lo {
		lo, hi = hi, lo
	}
	var out []geom.Point
	z.scanRange(lo, hi, func(b *store.Block, base int) bool {
		// Skip blocks whose chain-extended Z range misses the window's Z
		// interval (the fast per-block test of §6.2.2; the read is already
		// counted).
		if !b.Inserted && (z.extMax[b.ID] < zlo || z.extMin[b.ID] > zhi) {
			return true
		}
		b.Points(func(p geom.Point) {
			if q.Contains(p) {
				out = append(out, p)
			}
		})
		return true
	})
	return out
}

// KNN implements index.Index with RSMI's expanding-region algorithm
// (Algorithm 3), which the paper adapts to ZM (§6.2.4).
func (z *ZM) KNN(q geom.Point, k int) []geom.Point {
	if k <= 0 || z.n == 0 {
		return nil
	}
	if k > z.n {
		k = z.n
	}
	frac := math.Sqrt(float64(k) / float64(z.n))
	width := z.pmfX.Alpha(q.X, z.opts.Delta) * frac
	height := z.pmfY.Alpha(q.Y, z.opts.Delta) * frac

	type cand struct {
		d2 float64
		p  geom.Point
	}
	var best []cand
	visited := make(map[int]bool)
	kth := math.Inf(1)

	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		wq := geom.RectAround(q, width, height)
		zlo := z.zvalue(geom.Pt(wq.MinX, wq.MinY))
		zhi := z.zvalue(geom.Pt(wq.MaxX, wq.MaxY))
		_, lo, _ := z.locate(zlo)
		_, _, hi := z.locate(zhi)
		if hi < lo {
			lo, hi = hi, lo
		}
		z.scanRange(lo, hi, func(b *store.Block, base int) bool {
			if visited[b.ID] {
				return true
			}
			visited[b.ID] = true
			b.Points(func(p geom.Point) {
				d2 := q.Dist2(p)
				if len(best) < k || d2 < kth {
					best = append(best, cand{d2, p})
				}
			})
			return true
		})
		if len(best) >= k {
			sort.Slice(best, func(i, j int) bool {
				if best[i].d2 != best[j].d2 {
					return best[i].d2 < best[j].d2
				}
				return best[i].p.Less(best[j].p)
			})
			if len(best) > 2*k {
				best = best[:2*k]
			}
			kth = best[k-1].d2
			if math.Sqrt(kth) <= math.Sqrt(width*width+height*height)/2 {
				break
			}
			width = 2 * math.Sqrt(kth)
			height = 2 * math.Sqrt(kth)
			continue
		}
		width *= 2
		height *= 2
	}
	if len(best) > k {
		best = best[:k]
	}
	out := make([]geom.Point, len(best))
	for i, c := range best {
		out[i] = c.p
	}
	return out
}

// Insert implements index.Index with RSMI's update algorithm adapted to ZM
// (§6.2.5): place in the predicted block or chain an overflow block, and
// extend the block's Z range so skipping stays safe.
func (z *ZM) Insert(p geom.Point) {
	if z.n == 0 {
		*z = *New([]geom.Point{p}, z.opts)
		return
	}
	// Insert into the block predicted by the query ("We insert p into the
	// block predicted by the query", §5): the same locate+narrow a point
	// query runs, so the chain is always found again.
	zv := z.zvalue(p)
	_, lo, hi := z.locate(zv)
	_, target := z.narrow(lo, hi, zv)
	base := z.store.Read(target)
	var dst *store.Block
	last := base
	for b := base; b != nil && (b == base || b.Inserted); b = z.store.Peek(b.Next) {
		last = b
		if dst == nil && b.HasSpace() {
			dst = b
		}
	}
	if dst == nil {
		dst = z.store.Alloc()
		dst.Inserted = true
		z.store.Link(last, dst)
	}
	dst.Append(p)
	// Extend the chain's Z range to cover the new point (scan filter only;
	// the build-time ranges driving binary search stay immutable).
	if zv < z.extMin[target] {
		z.extMin[target] = zv
	}
	if zv > z.extMax[target] {
		z.extMax[target] = zv
	}
	z.n++
}

// Delete implements index.Index: find and flag (§5 semantics).
func (z *ZM) Delete(p geom.Point) bool {
	id, slot, found := z.findPoint(p)
	if !found {
		return false
	}
	z.store.Peek(id).Delete(slot)
	z.n--
	return true
}

// Len implements index.Index.
func (z *ZM) Len() int { return z.n }

// ErrorBounds returns the maximum per-model error bounds in blocks
// (Table 4's ZM row).
func (z *ZM) ErrorBounds() (errLow, errHigh int) {
	for i := range z.errUp {
		if z.errUp[i] > errLow {
			errLow = z.errUp[i]
		}
		if z.errDn[i] > errHigh {
			errHigh = z.errDn[i]
		}
	}
	return errLow, errHigh
}

// Stats implements index.Index.
func (z *ZM) Stats() index.Stats {
	var modelBytes int64
	if z.root != nil {
		modelBytes += z.root.SizeBytes()
	}
	for _, m := range z.mid {
		modelBytes += m.SizeBytes()
	}
	for _, m := range z.leafs {
		modelBytes += m.SizeBytes()
	}
	modelBytes += int64(len(z.zMin)) * 32 // Z-range metadata (build + ext)
	if z.pmfX != nil {
		modelBytes += z.pmfX.SizeBytes() + z.pmfY.SizeBytes()
	}
	errLow, errHigh := z.ErrorBounds()
	return index.Stats{
		Name:      z.Name(),
		SizeBytes: z.store.SizeBytes() + modelBytes,
		Height:    3,
		Blocks:    z.store.NumBlocks(),
		BuildTime: z.built,
		Models:    1 + len(z.mid) + len(z.leafs),
		ErrLow:    errLow,
		ErrHigh:   errHigh,
	}
}

// Accesses implements index.Index.
func (z *ZM) Accesses() int64 { return z.store.Accesses() }

// ResetAccesses implements index.Index.
func (z *ZM) ResetAccesses() { z.store.ResetAccesses() }
