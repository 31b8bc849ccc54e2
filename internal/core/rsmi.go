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
// bounds (Eqs. 4–5). An internal node partitions its points with the
// non-regular 2^⌊log4 N/B⌋ × 2^⌊log4 N/B⌋ grid of §3.2 — columns of equal
// count by x, each cut into cells of equal count by y — and recurses into
// its cells. The paper trains an MLP at every internal node to learn which
// cell a point falls in; here the node keeps the grid's cuts themselves (the
// first point of every column and row) and descent follows them, so no
// internal node trains, and a point's cell is its true cell. The points are
// grouped by the cuts as descent compares them, so query-time descent is
// exact by construction — whatever cell the cuts give a point is the cell
// whose subtree indexes it.
//
// Window queries and kNN rounds walk the leaves whose MBR meets their
// region and apply the corner rule of Algorithm 2 inside each one, to the
// region clipped to the leaf's MBR (see WindowQuery and KNN).
//
// # Correctness guarantees
//
// Point queries have no false negatives (a scan of the prediction's span,
// which narrows the error-bounded scan of §4.1). Window
// queries have no false positives and may miss points (approximate, §4.2);
// ExactWindow/ExactKNN use the per-model MBRs for exact answers (the RSMIa
// variant of §6.2.3; internal/shard serves every window and kNN through
// them, by ExactWindowAppend and ExactKNNInto). All guarantees hold regardless of how well the models
// trained — and regardless of what function a model computes, because none
// of them compares a prediction with the truth; each compares a prediction
// with an earlier prediction of the same predictor:
//
//   - an internal node's predictor is its cuts: RSMI.cell counts the cuts at
//     or before a point, and is the only way anything in this package
//     obtains a cell. buildInternal groups points by cell and descend
//     follows cell, so a point is looked for in the subtree it was put in;
//   - a leaf model is trained as an mlp.Network and at once compiled into an
//     mlp.Kernel (normalisation and class scaling folded into the weights, a
//     table sigmoid), which is all the leaf keeps. node.predictClamped — one
//     Kernel.Predict call — is the only way anything in this package obtains
//     a block prediction;
//   - buildLeaf measures errUp/errDown as the largest gaps between a point's
//     block and predictClamped, and scanBounds widens predictClamped by
//     exactly those, so a window corner's scan covers the block of every
//     point the leaf was built over;
//   - buildLeaf records, for every prediction, the span of blocks that hold
//     the points predictClamped puts there, and a point query or Delete
//     scans the span of its own prediction. Every live point's base block
//     lies in the span of its prediction: Insert files a point under a base
//     block of that span (under the block predictClamped names, widening the
//     span to it, only when the span is empty), a query or Delete for it
//     walks that block's overflow chain, and Delete only removes points.
//     Load checks the span invariant point by point, so a loaded index finds
//     every point it holds.
//
// Cuts compare stored coordinates and Kernel.Predict is deterministic,
// total, and the same function on every machine (see mlp.Kernel), and a
// snapshot stores the cuts and kernels themselves, so the argument carries
// across save and load. It does not carry across a change of predictor,
// which is why the RSMIv1 format — network weights, to be run through an
// exp-based forward pass — is refused rather than converted
// (ErrSnapshotV1), and so is RSMIv3, whose internal nodes are models
// (ErrSnapshotV3). An RSMIv2 file holds no spans, and spans derived at load
// from the live points would be narrower than the saved index's after
// deletes, so the loaded index would read other blocks than the saved one:
// it is refused too (ErrSnapshotV2).
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

// maxDepth bounds the recursion; a node whose cuts make no grouping progress
// (copies of one point) gets an oversized leaf instead (correct, just
// slower), so the bound is a safety net rather than a tuning knob.
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
	// LearningRate and Epochs configure sub-model training (defaults 0.01 /
	// 500, matching §6.1; the bench harness lowers Epochs for sweep speed).
	// Training always runs its epochs. kNN's skew estimate is fixed at the
	// paper's γ = 100 pieces and Δ = 0.01 step (§4.3: cdf.DefaultGamma,
	// cdf.DefaultDelta).
	LearningRate float64
	Epochs       int
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
	return o
}

// node is one sub-model M_{i,j} of the RSMI: an internal node's grid cuts,
// or a leaf's model and blocks.
type node struct {
	// mbr is the subtree MBR, maintained under insertion (§5). Window
	// queries and kNN walk the leaves whose MBR meets their region, and the
	// exact RSMIa traversal (§4.2 end) prunes by it.
	mbr geom.Rect

	// Internal-node fields: the grid's cuts (see buildInternal) and the
	// children of its cells.
	cols     []geom.Point   // column cuts, ascending by (x, then y)
	rows     [][]geom.Point // rows[c]: column c's row cuts, ascending by (y, then x)
	children []*node        // indexed by cell curve value; nil = empty

	// Leaf-model fields.
	leaf bool
	// kernel is the compiled leaf model, the leaf's only predictor: it maps
	// raw coordinates to a local base block. The zero kernel of a
	// single-block leaf predicts 0.
	kernel     mlp.Kernel
	firstBlock int // first base block id
	numBlocks  int // base blocks owned by this leaf
	// errUp is M.err_l (Eq. 4): the largest under-prediction, i.e. how far
	// the true block can lie ABOVE the prediction, so window corners' scans
	// extend upward by errUp. errDown is M.err_a (Eq. 5): the largest
	// over-prediction, extending them downward.
	errUp   int
	errDown int
	points  int // live points in the subtree (maintained by updates)
}

// span is a range [lo, hi] of a leaf's local base blocks; lo > hi is the
// empty range.
type span struct{ lo, hi int32 }

// emptySpan is the span of a prediction no point has been filed under.
var emptySpan = span{lo: 0, hi: -1}

func (s span) empty() bool { return s.lo > s.hi }

// contains reports whether local base block b lies in s.
func (s span) contains(b int) bool { return int(s.lo) <= b && b <= int(s.hi) }

// cover widens s to hold local base block b.
func (s *span) cover(b int) {
	if s.empty() {
		s.lo, s.hi = int32(b), int32(b)
		return
	}
	s.lo, s.hi = min(s.lo, int32(b)), max(s.hi, int32(b))
}

// baseEntry is what the index keeps of one base block beside the store.
type baseEntry struct {
	// chainHead is the first overflow block chained after the base block,
	// NilBlock when it has none: what lets a walk step from one base block
	// to the next by index without loading either (see blockCursor).
	chainHead int32
	// span is the span of the leaf prediction that names the base block:
	// the leaf's blocks that hold the points it predicts there, empty when
	// there are none. A point query or Delete scans it instead of the
	// leaf's error range; Insert widens it only when it is empty, deletes
	// leave it.
	span span
}

// RSMI is the learned spatial index. It is not safe for concurrent use.
type RSMI struct {
	opts  Options
	store *store.Manager
	root  *node
	n     int // live points

	// side is the side of every internal node's grid, and grid[c·side + r]
	// the curve value of the cell in column c and row r: the index of its
	// child.
	side int
	grid []int32

	// blockMBR caches the MBR of every block (base and inserted), extended
	// on insertion; not shrunk on deletion (conservative, stays correct).
	blockMBR []geom.Rect
	// baseBlocks is the number of blocks created at build time; ids >=
	// baseBlocks are insertion overflow blocks reached via chains.
	baseBlocks int
	// bases[id] holds base block id's chain head and span. One array, not
	// two: the index pays one allocation's size-class rounding for them.
	bases []baseEntry
	// empty holds the overflow blocks with no live point, which Insert
	// reuses before it allocates one (reuseEmpty). linkChains derives it
	// from the blocks at build and load.
	empty blockSet

	pmfX, pmfY *cdf.PMF

	buildTime  time.Duration
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
	t.side, t.grid = gridCells(opts)
	t.root = t.build(work, 1)
	// The entries grew leaf by leaf; keep them without the growth's slack.
	t.bases = slices.Clone(t.bases)
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
	t.pmfX = cdf.New(xs, cdf.DefaultGamma)
	t.pmfY = cdf.New(ys, cdf.DefaultGamma)
}

// build recursively constructs the sub-model for pts at the given depth.
// pts may be reordered.
func (t *RSMI) build(pts []geom.Point, depth int) *node {
	if len(pts) <= t.opts.PartitionThreshold || depth >= maxDepth {
		return t.buildLeaf(pts, depth)
	}
	return t.buildInternal(pts, depth)
}

// buildLeaf orders pts by their rank-space curve value, packs them into
// blocks, and trains the leaf model (§3.1). Leaves are the deepest nodes,
// so the height is recorded here: the leaf built for a cell that took every
// point of its node sits one level below any depth build saw.
func (t *RSMI) buildLeaf(pts []geom.Point, depth int) *node {
	t.height = max(t.height, depth)
	ordered := t.orderLeaf(pts)
	first, count := t.store.Pack(ordered)
	for id := first; id < first+count; id++ {
		t.appendBlockMBR(t.store.Peek(id).MBR())
	}
	// Chain this leaf's run after the previous leaf's, so the block list
	// runs through every leaf in order ("The order of blocks under the
	// different leaf models follows the order of the partition IDs", §3.2).
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
	t.leaves++
	if count > 1 {
		n.kernel = t.trainLeaf(ordered, count)
	}
	// Exact error bounds over the training set (Eqs. 4–5), measured from the
	// kernel's own predictions: an under-prediction (M < blk) means the true
	// block is above the prediction, widening the upward scan; an
	// over-prediction widens the downward scan. Each prediction's span is
	// the same measurement kept per prediction.
	for range count {
		t.bases = append(t.bases, baseEntry{span: emptySpan})
	}
	bases := t.bases[first:]
	for i, p := range ordered {
		blk := i / t.opts.BlockCapacity
		pred := n.predictClamped(p)
		bases[pred].span.cover(blk)
		switch {
		case pred < blk && blk-pred > n.errUp:
			n.errUp = blk - pred
		case pred > blk && pred-blk > n.errDown:
			n.errDown = pred - blk
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

// buildInternal cuts pts into the non-regular grid of §3.2 and recurses into
// its cells: `side` columns of equal count by x, then each column into
// `side` cells of equal count by y. The paper trains an MLP to learn which
// cell a point falls in; the cuts are that function exactly, so the node
// keeps them instead of a model and trains nothing. The cuts compare points
// in the orders rank.Ranks ranks them: a column cut by (x, then y), a row cut
// by (y, then x). The points are grouped by cell, the predictor descent
// follows, not by the rank layout the cuts were read from: points equal in
// both coordinates that the layout split across a cut all go to the later
// cell, so descent is exact by construction.
func (t *RSMI) buildInternal(pts []geom.Point, depth int) *node {
	side, nPts := t.side, len(pts)
	n := &node{mbr: geom.BoundingRect(pts)}
	cells := side * side

	// A point's x rank names its column; walking the points in y-rank order
	// meets each column's points in row order, so the first point of every
	// row is met without a sort.
	rx, ry := rank.Ranks(pts)
	colSize := (nPts + side - 1) / side
	cols := (nPts + colSize - 1) / colSize
	n.cols = make([]geom.Point, cols-1)
	for i, r := range rx {
		if c := int(r) / colSize; c > 0 && int(r)%colSize == 0 {
			n.cols[c-1] = pts[i]
		}
	}
	byY := make([]int32, nPts)
	for i, r := range ry {
		byY[r] = int32(i)
	}
	rowCuts := make([]geom.Point, cols*(side-1))
	n.rows = make([][]geom.Point, cols)
	for c := range n.rows {
		n.rows[c] = rowCuts[c*(side-1) : c*(side-1) : (c+1)*(side-1)]
	}
	filled := make([]int, cols)
	for _, i := range byY {
		c := int(rx[i]) / colSize
		rowSize := (min(colSize, nPts-c*colSize) + side - 1) / side
		if f := filled[c]; f > 0 && f%rowSize == 0 {
			n.rows[c] = append(n.rows[c], pts[i])
		}
		filled[c]++
	}

	// Group the points by the cell descent sends them to, in cell order.
	cellOf := make([]int32, nPts)
	start := make([]int, cells+1)
	for i, p := range pts {
		c := t.cell(n, p)
		cellOf[i] = int32(c)
		start[c+1]++
	}
	for c := range cells {
		start[c+1] += start[c]
	}
	grouped := make([]geom.Point, nPts)
	next := slices.Clone(start[:cells])
	for i, p := range pts {
		grouped[next[cellOf[i]]] = p
		next[cellOf[i]]++
	}
	copy(pts, grouped)

	n.children = make([]*node, cells)
	for c := range cells {
		g := pts[start[c]:start[c+1]]
		switch {
		case len(g) == 0:
		case len(g) == nPts:
			// Every point fell into one cell, so the column cuts are all
			// copies of the least point. Recursing would cut the points the
			// same way again; an oversized leaf keeps the index correct.
			n.children[c] = t.buildLeaf(g, depth+1)
		default:
			n.children[c] = t.build(g, depth+1)
		}
		n.points += len(g)
	}
	return n
}

// gridCells returns the side of the grid every internal node of an index
// with options o cuts, 2^⌊log4 N/B⌋ clamped to at least 2 (§3.2), and the
// table from a cell's column and row to its curve value (see RSMI.grid).
func gridCells(o Options) (side int, grid []int32) {
	order := uint(1)
	nb := float64(o.PartitionThreshold) / float64(o.BlockCapacity)
	if f := math.Floor(math.Log2(nb) / 2); f > 1 {
		order = uint(min(f, maxGridOrder))
	}
	curve := sfc.New(o.Curve, order)
	side = int(curve.Side())
	grid = make([]int32, side*side)
	for c := range side {
		for r := range side {
			grid[c*side+r] = int32(curve.Value(uint32(c), uint32(r)))
		}
	}
	return side, grid
}

// maxGridOrder bounds the grid of an internal node at 2^10 × 2^10 cells,
// which no sensible N/B reaches (the defaults make it 8 × 8): a snapshot's
// options cannot make loading it allocate more.
const maxGridOrder = 10

// cell returns the curve value of the cell of internal node n that p falls
// in: the number of column cuts at or before p by (x, then y), then the
// number of that column's row cuts at or before p by (y, then x). Build,
// descent and update all find a point's cell through this one method.
func (t *RSMI) cell(n *node, p geom.Point) int {
	c := 0
	for _, cut := range n.cols {
		if !p.Less(cut) {
			c++
		}
	}
	r := 0
	for _, cut := range n.rows[c] {
		if !(p.Y < cut.Y || p.Y == cut.Y && p.X < cut.X) {
			r++
		}
	}
	return int(t.grid[c*t.side+r])
}

// trainLeaf trains the MLP of a leaf packed into the given number of
// blocks, mapping each point's normalised coordinates to its normalised
// block, with the paper's hidden sizing rule, and returns it compiled for
// raw coordinates and whole blocks. The network itself does not outlive the
// call.
func (t *RSMI) trainLeaf(pts []geom.Point, blocks int) mlp.Kernel {
	t.seedSerial++
	cfg := mlp.Config{
		Inputs:       2,
		Hidden:       mlp.HiddenFor(2, blocks),
		LearningRate: t.opts.LearningRate,
		Epochs:       t.opts.Epochs,
		Seed:         t.opts.Seed + t.seedSerial,
	}
	net := mlp.New(cfg)
	norm := geom.BoundingRect(pts)
	xs := make([]float64, 0, 2*len(pts))
	ys := make([]float64, 0, len(pts))
	for i, p := range pts {
		nx, ny := normalise(norm, p)
		xs = append(xs, nx, ny)
		ys = append(ys, float64(i/t.opts.BlockCapacity)/float64(blocks-1))
	}
	net.Train(cfg, xs, ys)
	return mlp.Compile(net, norm.MinX, norm.MinY, norm.MaxX, norm.MaxY, blocks)
}

// predictClamped is leaf n's prediction for p, a local base block in
// [0, numBlocks-1]. Build, query and update all predict through this one
// method — see "Correctness guarantees" in the package comment.
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

// linkChains walks the block list once from block 0 and records in t.bases,
// which holds one entry per base block, the head of every base block's
// overflow chain, and in t.empty the overflow blocks with no live point. The
// walks of this package step through base blocks by index and follow Next
// only inside a chain, so the list has to be the one Pack and Insert produce: base blocks follow each other in id
// order, whatever lies between two of them is an Inserted block with an id
// past the base range, and every block is reached exactly once. Anything
// else — a snapshot can say anything — is an error.

func (t *RSMI) linkChains() error {
	heads := t.bases
	t.empty = blockSet{}
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
			base, heads[id].chainHead = id, store.NilBlock
		case !b.Inserted || base < 0:
			return fmt.Errorf("core: block %d is chained but not an overflow block", id)
		case heads[base].chainHead == store.NilBlock:
			heads[base].chainHead = int32(id)
		}
		if id >= t.baseBlocks && b.Live() == 0 {
			t.empty.add(id)
		}
		id = b.Next
	}
	if base != t.baseBlocks-1 || reached != blocks {
		return fmt.Errorf("core: block list reaches %d of %d blocks, %d of %d base blocks",
			reached, blocks, base+1, t.baseBlocks)
	}
	return nil
}

// descend walks from the root to the leaf responsible for p (Algorithm 1,
// lines 1–3), following the cuts. It returns nil when no leaf is reachable.
func (t *RSMI) descend(p geom.Point) *node {
	n := t.root
	for n != nil && !n.leaf {
		n = t.childFor(n, p)
	}
	return n
}

// descendPath is descend for updates, which maintain every node on the way
// down: it also appends the internal nodes visited to path (pass a
// zero-length slice over a stack array to keep the walk allocation-free).
func (t *RSMI) descendPath(p geom.Point, path []*node) (*node, []*node) {
	n := t.root
	for n != nil && !n.leaf {
		path = append(path, n)
		n = t.childFor(n, p)
	}
	return n, path
}

// childFor returns the child of internal node n that p descends into: its
// cell's, or the nearest non-empty sibling's when that cell is empty (nil
// when every cell is). A cell is empty at build only where copies of one
// point straddle cuts (see buildInternal), and then p is not indexed; but an
// insert still needs a leaf to file p under.
func (t *RSMI) childFor(n *node, p geom.Point) *node {
	c := t.cell(n, p)
	if child := n.children[c]; child != nil {
		return child
	}
	return nearestChild(n, c)
}

// nearestChild returns the non-nil child with cell index closest to c.
func nearestChild(n *node, c int) *node {
	for d := 1; d < len(n.children); d++ {
		if i := c - d; i >= 0 && n.children[i] != nil {
			return n.children[i]
		}
		if i := c + d; i < len(n.children) && n.children[i] != nil {
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
		// The subtree MBR, and a leaf's compiled model (which replaced the
		// network and its normalisation rectangle, and carries the class
		// count) or an internal node's cuts.
		modelBytes += 4 * 8
		if n.leaf {
			modelBytes += n.kernel.SizeBytes()
		}
		modelBytes += int64(len(n.cols)) * 16
		for _, r := range n.rows {
			modelBytes += int64(len(r)) * 16
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	if t.pmfX != nil {
		modelBytes += t.pmfX.SizeBytes() + t.pmfY.SizeBytes()
	}
	// Block MBR cache (4 float64 per block) supports RSMIa and kNN; a
	// point query scans a span (two int32 per base block).
	modelBytes += int64(len(t.blockMBR))*32 + int64(len(t.bases))*8
	errLow, errHigh := t.ErrorBounds()
	return index.Stats{
		Name:      t.Name(),
		SizeBytes: t.store.SizeBytes() + modelBytes,
		Height:    t.height,
		Blocks:    t.store.NumBlocks(),
		BuildTime: t.buildTime,
		Models:    t.leaves,
		ErrLow:    errLow,
		ErrHigh:   errHigh,
	}
}

// Options returns the (defaulted) options the index was built with.
func (t *RSMI) Options() Options { return t.opts }

// String summarises the index structure.
func (t *RSMI) String() string {
	return fmt.Sprintf("RSMI{n=%d leaves=%d height=%d blocks=%d}",
		t.n, t.leaves, t.height, t.store.NumBlocks())
}
