// Package core implements the paper's primary contribution: the Recursive
// Spatial Model Index (RSMI) of §3, its query algorithms of §4 (point,
// window, and kNN), the exact-answer variant RSMIa, and the update handling
// of §5 including the periodic-rebuild variant RSMIr.
//
// # Structure (§3)
//
// A leaf model orders its points by the rank-space curve-value technique of
// §3.1, packs every B of them into a block, and trains an MLP that maps
// point coordinates to the (normalised) block id, recording exact error
// bounds (Eqs. 4–5). An internal model partitions its points with a learned
// non-regular 2^⌊log4 N/B⌋ × 2^⌊log4 N/B⌋ grid (§3.2): an MLP is trained to
// map coordinates to the grid cell's curve value, and the points are grouped
// by the model's own predictions, so query-time descent is exact by
// construction — whatever cell the model predicts for a point is the cell
// whose subtree indexes it.
//
// # Correctness guarantees
//
// Point queries have no false negatives (error-bounded scan, §4.1). Window
// queries have no false positives and may miss points (approximate, §4.2);
// ExactWindow/ExactKNN use the per-model MBRs for exact answers (the RSMIa
// variant of §6.2.3). All guarantees hold regardless of how well the models
// trained — and regardless of what function a model computes, because none
// of them compares a prediction with the truth; each compares a prediction
// with an earlier prediction of the same predictor:
//
//   - a sub-model is trained as an mlp.Network and at once compiled into an
//     mlp.Kernel (normalisation and class scaling folded into the weights, a
//     table sigmoid), which is all a node keeps. node.predictClamped — one
//     Kernel.Predict call — is the only way anything in this package obtains
//     a prediction;
//   - buildInternal groups points by predictClamped and descend follows
//     predictClamped, so a point is looked for in the subtree it was put in;
//   - buildLeaf measures errUp/errDown as the largest gaps between a point's
//     block and predictClamped, and scanBounds widens predictClamped by
//     exactly those, so the scan covers the block of every point the leaf
//     was built over;
//   - Insert files a point under the base block predictClamped names, and a
//     query or Delete for it scans a range that contains that block and
//     walks its overflow chain.
//
// Kernel.Predict is deterministic, total, and the same function on every
// machine (see mlp.Kernel), and a snapshot stores the kernels themselves, so
// the argument carries across save and load. It does not carry across a
// change of predictor, which is why the RSMIv1 format — network weights, to
// be run through an exp-based forward pass — is refused rather than
// converted (ErrSnapshotV1).
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"rsmi/internal/cdf"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/mlp"
	"rsmi/internal/rank"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// DefaultPartitionThreshold is the paper's N = 10,000 (§6.1, chosen by the
// Table 3 sweep).
const DefaultPartitionThreshold = 10000

// maxDepth bounds the recursion; a model that makes no grouping progress is
// turned into an oversized leaf instead (correct, just slower), so the bound
// is a safety net rather than a tuning knob.
const maxDepth = 16

// Options configures RSMI construction.
type Options struct {
	// BlockCapacity is B, the points per block (default 100, §6.1).
	BlockCapacity int
	// PartitionThreshold is N, the maximum points a leaf model handles
	// (default 10,000, §6.1).
	PartitionThreshold int
	// Curve selects the SFC used for ordering (default Hilbert, §6.1).
	Curve sfc.Kind
	// LearningRate, Epochs, and TargetLoss configure sub-model training
	// (defaults 0.01 / 500 / off, matching §6.1; the bench harness lowers
	// Epochs for sweep speed).
	LearningRate float64
	Epochs       int
	TargetLoss   float64
	// Gamma is the PMF piece count for kNN skew estimation (default 100).
	Gamma int
	// Delta is the PMF slope probe step (default 0.01).
	Delta float64
	// Seed drives all model initialisation deterministically.
	Seed int64
	// RawGridLeafOrder disables the rank-space transform and orders leaf
	// points by their curve value on a fixed coordinate grid instead —
	// the ordering of the ZM baseline [46]. It exists only for the
	// ablation experiment (EXPERIMENTS.md, "Ablations"): the paper's claim is that
	// rank-space ordering yields a simpler CDF and tighter error bounds.
	RawGridLeafOrder bool
}

// withDefaults fills unset fields with the paper's defaults.
func (o Options) withDefaults() Options {
	if o.BlockCapacity == 0 {
		o.BlockCapacity = store.DefaultBlockCapacity
	}
	if o.PartitionThreshold == 0 {
		o.PartitionThreshold = DefaultPartitionThreshold
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

// node is one sub-model M_{i,j} of the RSMI.
type node struct {
	// kernel is the compiled sub-model, the node's only predictor: it maps
	// raw coordinates to a child cell (internal) or a local base block
	// (leaf). The zero kernel of a single-block leaf predicts 0.
	kernel mlp.Kernel
	// mbr is the subtree MBR, maintained under insertion (§5) and used by
	// the exact RSMIa traversal (§4.2 end).
	mbr geom.Rect

	// Internal-model fields.
	children []*node // indexed by predicted cell curve value; nil = empty
	cells    int     // grid cells = S²

	// Leaf-model fields.
	leaf       bool
	firstBlock int // first base block id
	numBlocks  int // base blocks owned by this leaf
	// errUp is M.err_l (Eq. 4): the largest under-prediction, i.e. how far
	// the true block can lie ABOVE the prediction, so scans extend upward
	// by errUp. errDown is M.err_a (Eq. 5): the largest over-prediction,
	// extending scans downward.
	errUp   int
	errDown int
	points  int // live points in the subtree (maintained by updates)
}

// RSMI is the learned spatial index. It is not safe for concurrent use.
type RSMI struct {
	opts  Options
	store *store.Manager
	root  *node
	n     int // live points

	// blockMBR caches the MBR of every block (base and inserted), extended
	// on insertion; not shrunk on deletion (conservative, stays correct).
	blockMBR []geom.Rect
	// baseBlocks is the number of blocks created at build time; ids >=
	// baseBlocks are insertion overflow blocks reached via chains.
	baseBlocks int
	// chainHead[id] is the first overflow block chained after base block id,
	// NilBlock when it has none: what lets a walk step from one base block to
	// the next by index without loading either (see blockCursor).
	chainHead []int32

	pmfX, pmfY *cdf.PMF

	buildTime  time.Duration
	models     int
	leaves     int
	height     int
	seedSerial int64
	inserted   int // insertions since build/rebuild (drives RSMIr policy)
	lastTail   int // tail block of the previously packed leaf run
}

var _ index.Index = (*RSMI)(nil)

// New builds an RSMI over the points (§3). The input slice is not modified.
// Points with a NaN or infinite coordinate are not indexed (see
// ErrNonFinitePoint).
func New(pts []geom.Point, opts Options) *RSMI {
	return NewOwned(geom.FinitePoints(pts), opts)
}

// NewOwned builds an RSMI over work, which must hold finite points only and
// which the build takes over and reorders: Rebuild, and a shard's rebuild,
// hand it the one copy of the live points AllPoints makes.
func NewOwned(work []geom.Point, opts Options) *RSMI {
	opts = opts.withDefaults()
	start := time.Now()
	t := &RSMI{
		opts:     opts,
		store:    store.NewManager(opts.BlockCapacity),
		n:        len(work),
		lastTail: store.NilBlock,
	}
	t.root = t.build(work, 1)
	if err := t.linkChains(); err != nil {
		panic(err) // the list was linked a moment ago, by this package
	}
	t.buildPMFs(work)
	t.buildTime = time.Since(start)
	return t
}

// buildPMFs constructs the per-dimension piecewise CDFs used to estimate the
// kNN skew parameters αx, αy (§4.3).
func (t *RSMI) buildPMFs(pts []geom.Point) {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	t.pmfX = cdf.New(xs, t.opts.Gamma)
	t.pmfY = cdf.New(ys, t.opts.Gamma)
}

// build recursively constructs the sub-model for pts at the given depth.
// pts may be reordered.
func (t *RSMI) build(pts []geom.Point, depth int) *node {
	if depth > t.height {
		t.height = depth
	}
	if len(pts) <= t.opts.PartitionThreshold || depth >= maxDepth {
		return t.buildLeaf(pts, depth)
	}
	return t.buildInternal(pts, depth)
}

// buildLeaf orders pts by their rank-space curve value, packs them into
// blocks, and trains the leaf model (§3.1).
func (t *RSMI) buildLeaf(pts []geom.Point, depth int) *node {
	ordered := t.orderLeaf(pts)
	first, count := t.store.Pack(ordered)
	for id := first; id < first+count; id++ {
		t.appendBlockMBR(t.store.Peek(id).MBR())
	}
	// Chain this leaf's run after the previous leaf's, so window scans can
	// cross leaf boundaries ("The order of blocks under the different leaf
	// models follows the order of the partition IDs", §3.2).
	t.store.LinkRuns(t.lastTail, first)
	t.lastTail = first + count - 1
	t.baseBlocks = t.store.NumBlocks()

	n := &node{
		leaf:       true,
		mbr:        geom.BoundingRect(ordered),
		firstBlock: first,
		numBlocks:  count,
		points:     len(ordered),
	}
	t.models++
	t.leaves++

	if count > 1 {
		n.kernel = t.trainModel(ordered, func(i int) float64 {
			blk := i / t.opts.BlockCapacity
			return float64(blk) / float64(count-1)
		}, count)
		// Exact error bounds over the training set (Eqs. 4–5), measured from
		// the kernel's own predictions: an under-prediction (M < blk) means
		// the true block is above the prediction, widening the upward scan;
		// an over-prediction widens the downward scan.
		for i, p := range ordered {
			blk := i / t.opts.BlockCapacity
			pred := n.predictClamped(p)
			switch {
			case pred < blk && blk-pred > n.errUp:
				n.errUp = blk - pred
			case pred > blk && pred-blk > n.errDown:
				n.errDown = pred - blk
			}
		}
	}
	return n
}

// orderLeaf orders leaf points for packing: rank-space curve order by
// default (§3.1), or raw-grid curve order under the A1 ablation.
func (t *RSMI) orderLeaf(pts []geom.Point) []geom.Point {
	if !t.opts.RawGridLeafOrder {
		return rank.Order(pts, t.opts.Curve)
	}
	norm := geom.BoundingRect(pts)
	curve := sfc.New(t.opts.Curve, sfc.OrderFor(len(pts)))
	side := float64(curve.Side() - 1)
	type cp struct {
		cv uint64
		p  geom.Point
	}
	cps := make([]cp, len(pts))
	for i, p := range pts {
		nx, ny := normalise(norm, p)
		cps[i] = cp{curve.Value(uint32(nx*side), uint32(ny*side)), p}
	}
	slices.SortFunc(cps, func(a, b cp) int {
		return cmp.Or(cmp.Compare(a.cv, b.cv), a.p.Compare(b.p))
	})
	out := make([]geom.Point, len(cps))
	for i, c := range cps {
		out[i] = c.p
	}
	return out
}

// buildInternal learns the non-regular grid partitioning of §3.2 and
// recurses into the predicted groups.
func (t *RSMI) buildInternal(pts []geom.Point, depth int) *node {
	nb := float64(t.opts.PartitionThreshold) / float64(t.opts.BlockCapacity)
	order := uint(1) // ⌊log4 N/B⌋, clamped to at least a 2×2 grid
	if f := math.Floor(math.Log2(nb) / 2); f > 1 {
		order = uint(f)
	}
	curve := sfc.New(t.opts.Curve, order)
	side := int(curve.Side())
	cells := side * side

	// Non-regular grid: cut into `side` columns of equal count by x, then
	// each column into `side` cells of equal count by y. The rank-space
	// ranks lay the points out that way without a comparison sort: a
	// point's x rank names its column, and filing the points into their
	// columns in y-rank order leaves every column sorted by y.
	rx, ry := rank.Ranks(pts)
	nPts := len(pts)
	colSize := (nPts + side - 1) / side
	byY := make([]int32, nPts)
	for i, r := range ry {
		byY[r] = int32(i)
	}
	laid := make([]geom.Point, nPts)
	filled := make([]int, side)
	for _, i := range byY {
		c := int(rx[i]) / colSize
		laid[c*colSize+filled[c]] = pts[i]
		filled[c]++
	}
	pts = laid
	cellCV := make([]uint64, nPts) // ground-truth cell curve value per point
	for c := 0; c < side; c++ {
		lo := c * colSize
		if lo >= nPts {
			break
		}
		hi := lo + colSize
		if hi > nPts {
			hi = nPts
		}
		col := pts[lo:hi]
		rowSize := (len(col) + side - 1) / side
		for i := range col {
			cy := i / rowSize
			if cy >= side {
				cy = side - 1
			}
			cellCV[lo+i] = curve.Value(uint32(c), uint32(cy))
		}
	}

	n := &node{
		mbr:   geom.BoundingRect(pts),
		cells: cells,
	}
	t.models++
	n.kernel = t.trainModel(pts, func(i int) float64 {
		return float64(cellCV[i]) / float64(cells-1)
	}, cells)

	// Group points by the kernel's own prediction (the learned grouping of
	// §3.2) so descent is exact.
	groups := make([][]geom.Point, cells)
	for _, p := range pts {
		c := n.predictClamped(p)
		groups[c] = append(groups[c], p)
	}

	n.children = make([]*node, cells)
	for c, g := range groups {
		if len(g) == 0 {
			continue
		}
		if len(g) == nPts {
			// Model collapse: every point predicted into one cell. Recursing
			// would not terminate; an oversized leaf keeps the index correct.
			n.children[c] = t.buildLeaf(g, depth+1)
			n.points += len(g)
			continue
		}
		n.children[c] = t.build(g, depth+1)
		n.points += len(g)
	}
	return n
}

// trainModel trains an MLP mapping normalised coordinates to target(i) for
// each point, with the paper's hidden sizing rule for the given output-class
// count, and returns it compiled for raw coordinates and whole classes. The
// network itself does not outlive the call.
func (t *RSMI) trainModel(pts []geom.Point, target func(int) float64, classes int) mlp.Kernel {
	t.seedSerial++
	cfg := mlp.Config{
		Inputs:       2,
		Hidden:       mlp.HiddenFor(2, classes),
		LearningRate: t.opts.LearningRate,
		Epochs:       t.opts.Epochs,
		TargetLoss:   t.opts.TargetLoss,
		Seed:         t.opts.Seed + t.seedSerial,
	}
	net := mlp.New(cfg)
	norm := geom.BoundingRect(pts)
	xs := make([]float64, 0, 2*len(pts))
	ys := make([]float64, 0, len(pts))
	for i, p := range pts {
		nx, ny := normalise(norm, p)
		xs = append(xs, nx, ny)
		ys = append(ys, target(i))
	}
	net.Train(cfg, xs, ys)
	return mlp.Compile(net, norm.MinX, norm.MinY, norm.MaxX, norm.MaxY, classes)
}

// predictClamped is the node's prediction for p, a class in [0, classes-1]
// (cells of an internal node, base blocks of a leaf). Build, query and
// update all predict through this one method — see "Correctness guarantees"
// in the package comment.
func (n *node) predictClamped(p geom.Point) int {
	return n.kernel.Predict(p.X, p.Y)
}

// normalise maps p into the unit square relative to norm; degenerate spans
// map to 0.5. It prepares training sets only: a trained model is compiled
// with its normalisation folded in (mlp.Compile).
func normalise(norm geom.Rect, p geom.Point) (float64, float64) {
	nx, ny := 0.5, 0.5
	if dx := norm.MaxX - norm.MinX; dx > 0 {
		nx = (p.X - norm.MinX) / dx
	}
	if dy := norm.MaxY - norm.MinY; dy > 0 {
		ny = (p.Y - norm.MinY) / dy
	}
	return nx, ny
}

// appendBlockMBR records the MBR of a newly allocated block.
func (t *RSMI) appendBlockMBR(r geom.Rect) {
	t.blockMBR = append(t.blockMBR, r)
}

// linkChains walks the block list once from block 0 and records the head of
// every base block's overflow chain. The walks of this package step through
// base blocks by index and follow Next only inside a chain, so the list has
// to be the one Pack and Insert produce: base blocks follow each other in id
// order, whatever lies between two of them is an Inserted block with an id
// past the base range, and every block is reached exactly once. Anything
// else — a snapshot can say anything — is an error.
func (t *RSMI) linkChains() error {
	heads := make([]int32, t.baseBlocks)
	blocks := t.store.NumBlocks()
	base, reached := -1, 0
	for id := 0; blocks > 0 && id != store.NilBlock; reached++ {
		b := t.store.Peek(id)
		switch {
		case b == nil || reached == blocks:
			return fmt.Errorf("core: block list leaves the store or loops at link %d", id)
		case id < t.baseBlocks && (b.Inserted || id != base+1):
			return fmt.Errorf("core: base block %d is out of order or marked inserted", id)
		case id < t.baseBlocks:
			base, heads[id] = id, store.NilBlock
		case !b.Inserted || base < 0:
			return fmt.Errorf("core: block %d is chained but not an overflow block", id)
		case heads[base] == store.NilBlock:
			heads[base] = int32(id)
		}
		id = b.Next
	}
	if base != t.baseBlocks-1 || reached != blocks {
		return fmt.Errorf("core: block list reaches %d of %d blocks, %d of %d base blocks",
			reached, blocks, base+1, t.baseBlocks)
	}
	t.chainHead = heads
	return nil
}

// descend walks from the root to the leaf model responsible for p
// (Algorithm 1, lines 1–3). When the predicted child is empty, the nearest
// non-empty sibling cell is used: p is then provably not indexed, but
// window-query corners still need a block estimate (§4.2 discussion). It
// returns nil when no leaf is reachable.
func (t *RSMI) descend(p geom.Point) *node {
	n := t.root
	for n != nil && !n.leaf {
		n = n.childFor(p)
	}
	return n
}

// descendPath is descend for updates, which maintain every model on the way
// down: it also appends the internal nodes visited to path (pass a
// zero-length slice over a stack array to keep the walk allocation-free).
func (t *RSMI) descendPath(p geom.Point, path []*node) (*node, []*node) {
	n := t.root
	for n != nil && !n.leaf {
		path = append(path, n)
		n = n.childFor(p)
	}
	return n, path
}

// childFor returns the child of internal node n that p descends into: the
// predicted cell's, or the nearest non-empty sibling's when that cell is
// empty (nil when every cell is).
func (n *node) childFor(p geom.Point) *node {
	c := n.predictClamped(p)
	if child := n.children[c]; child != nil {
		return child
	}
	return nearestChild(n, c)
}

// nearestChild returns the non-nil child with cell index closest to c.
func nearestChild(n *node, c int) *node {
	for d := 1; d < n.cells; d++ {
		if i := c - d; i >= 0 && n.children[i] != nil {
			return n.children[i]
		}
		if i := c + d; i < n.cells && n.children[i] != nil {
			return n.children[i]
		}
	}
	return nil
}

// Name implements index.Index.
func (t *RSMI) Name() string { return "RSMI" }

// Len implements index.Index.
func (t *RSMI) Len() int { return t.n }

// Accesses implements index.Index.
func (t *RSMI) Accesses() int64 { return t.store.Accesses() }

// ResetAccesses implements index.Index.
func (t *RSMI) ResetAccesses() { t.store.ResetAccesses() }

// ErrorBounds returns the maximum leaf prediction error bounds in blocks
// (M.err_l of Eq. 4, M.err_a of Eq. 5), the quantities reported in Table 4.
func (t *RSMI) ErrorBounds() (errLow, errHigh int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.leaf {
			if n.errUp > errLow {
				errLow = n.errUp
			}
			if n.errDown > errHigh {
				errHigh = n.errDown
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return errLow, errHigh
}

// AvgDepth returns the average number of sub-models invoked to reach a data
// block (§6.2.2 reports 3.11–4.01 across the data sets).
func (t *RSMI) AvgDepth() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.depthSum()) / float64(t.n)
}

// depthSum sums every live point's leaf depth (the root is depth 1) from
// the leaves' point counts, which Insert and Delete keep current.
func (t *RSMI) depthSum() int64 {
	var sum int64
	var walk func(n *node, depth int64)
	walk = func(n *node, depth int64) {
		if n == nil {
			return
		}
		if n.leaf {
			sum += int64(n.points) * depth
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 1)
	return sum
}

// Stats implements index.Index.
func (t *RSMI) Stats() index.Stats {
	var modelBytes int64
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		// The subtree MBR and the compiled model (which replaced the network
		// and its normalisation rectangle, and carries the class count).
		modelBytes += 4*8 + n.kernel.SizeBytes()
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	if t.pmfX != nil {
		modelBytes += t.pmfX.SizeBytes() + t.pmfY.SizeBytes()
	}
	// Block MBR cache (4 float64 per block) supports RSMIa and kNN.
	modelBytes += int64(len(t.blockMBR)) * 32
	errLow, errHigh := t.ErrorBounds()
	return index.Stats{
		Name:      t.Name(),
		SizeBytes: t.store.SizeBytes() + modelBytes,
		Height:    t.height,
		Blocks:    t.store.NumBlocks(),
		BuildTime: t.buildTime,
		Models:    t.models,
		ErrLow:    errLow,
		ErrHigh:   errHigh,
	}
}

// Options returns the (defaulted) options the index was built with.
func (t *RSMI) Options() Options { return t.opts }

// String summarises the index structure.
func (t *RSMI) String() string {
	return fmt.Sprintf("RSMI{n=%d models=%d leaves=%d height=%d blocks=%d}",
		t.n, t.models, t.leaves, t.height, t.store.NumBlocks())
}
