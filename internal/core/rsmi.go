// Package core implements the paper's primary contribution: the Recursive
// Spatial Model Index (RSMI) of §3, its point query of §4.1, the exact
// window and kNN queries of its RSMIa variant (§4.2 end), and the update
// handling of §5 including the periodic-rebuild variant RSMIr.
//
// # Structure (§3)
//
// A leaf orders its points by the rank-space curve-value technique of §3.1
// and packs every B of them into a block. The paper trains an MLP per leaf
// to map a point to its block and records its error bounds (Eqs. 4–5); here
// the leaf tabulates that function exactly instead. Its rank-space curve
// grid is cut into 2^k × 2^k aligned cells, each one contiguous run of the
// curve, and the leaf keeps the cuts (the first point of every column and of
// every row) and how many of its points precede each cell in curve order,
// so a point's cell names the blocks that hold it (see buildLeaf). An
// internal node partitions its points with the non-regular
// 2^⌊log4 N/B⌋ × 2^⌊log4 N/B⌋ grid of §3.2 — columns of equal count by x,
// each cut into cells of equal count by y — and recurses into its cells.
// The paper trains an MLP at every internal node to learn which cell a point
// falls in; here the node keeps the grid's cuts themselves and descent
// follows them. No node trains, and a point's cell is its true cell.
//
// Window and kNN queries walk the MBRs every node and block keeps, as the
// paper's exact variant RSMIa does (§4.2 end, §6.2.3), rather than
// Algorithms 2 and 3: a window reads the blocks whose MBR meets it in the
// leaves whose MBR meets it, and kNN is a best-first walk seeded from the
// query's own leaf cell (see WindowQuery and KNN). At the benchmark's scales
// the walk read fewer blocks than the cells of Algorithms 2 and 3 and took
// about as long (EXPERIMENTS.md, "One read path").
//
// # Correctness guarantees
//
// Point queries have no false negatives, and window and kNN answers are
// exact: a node's and a block's MBR cover every point under them, so the
// walks skip no point of the answer. Every point query's guarantee rests on
// one rule: a point is looked for where the same lookup put it.
//
//   - an internal node's lookup is RSMI.cell, which counts the cuts at or
//     before a point. buildInternal groups points by cell and descend
//     follows cell, so a point is looked for in the subtree it was put in;
//   - a leaf's lookup is RSMI.leafCell, the same count over the leaf's own
//     cuts. buildLeaf groups the points by it before packing them, so a
//     cell's points take one run of the leaf's positions, and cellBlocks
//     names the base blocks of that run — for a cell that took no point,
//     the block its position falls in;
//   - Insert files a point under a base block of its cell's blocks, a point
//     query or Delete searches those blocks and their overflow chains, and
//     Delete only removes points. A leaf's repack (see repack) groups its
//     live points by the same lookup, over the same cuts, and rewrites its
//     counts and blocks together; nothing else moves a cut or a count, so
//     every live point stays in the blocks of its cell. Load checks this
//     point by point, so a loaded index finds every point it holds.
//
// Cuts compare stored coordinates, and a snapshot stores the cuts and counts
// themselves, so the argument carries across save and load. It does not
// carry across a change of lookup, which is why every earlier format is
// refused (ErrSnapshotVersion) rather than converted.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/index"
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
	// LearningRate, Epochs and Seed configured the training of the paper's
	// sub-models (§6.1: 0.01 and 500). No RSMI node is a model any more (see
	// "Structure" in the package comment), so they are inert: they are
	// neither used nor stored in a snapshot, and are kept for the callers
	// that set them.
	LearningRate float64
	Epochs       int
	Seed         int64
	// RawGridLeafOrder disables the rank-space transform and orders leaf
	// points by their curve value on a fixed coordinate grid instead — the
	// ordering of the ZM baseline [46] — and cuts the leaf's cells from that
	// grid. It exists only for the ablation experiment (EXPERIMENTS.md,
	// "Ablations"): the paper's claim is that rank-space ordering yields a
	// simpler CDF, here cells of even size and so narrower block ranges.
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
	return o
}

// node is one sub-model M_{i,j} of the RSMI: an internal node's grid cuts,
// or a leaf's cell table and blocks.
type node struct {
	// mbr is the subtree MBR, maintained under insertion (§5). Window and
	// kNN queries prune by it, as the exact RSMIa traversal does (§4.2 end).
	mbr geom.Rect

	// cols are the column cuts, ascending by (x, then y), of an internal
	// node's grid (see buildInternal) and of a leaf's cells (see buildLeaf)
	// alike.
	cols []geom.Point

	// Internal-node fields: each column's row cuts and the children of the
	// grid's cells.
	rows     [][]geom.Point // rows[c]: column c's row cuts, ascending by (y, then x)
	children []*node        // indexed by cell curve value; nil = empty

	// Leaf fields. The leaf's cells are 2^order × 2^order, cut by cols and by
	// rowCuts, its one list of row cuts, ascending by (y, then x): a leaf's
	// grid is regular in rank space. starts[c] is the number of the leaf's
	// packed points — those of its build or of its last repack — in the
	// cells before cell c in curve order, so cell c's points took positions
	// [starts[c], starts[c+1]) of the leaf's run. Position i lies in base
	// block blocks[i/fill]: the leaf's base blocks, in run order, wherever in
	// the store they are, each packed with fill points — B at a build, fewer
	// at a repack, which leaves every block room for inserts.
	leaf    bool
	order   uint8
	rowCuts []geom.Point
	starts  []int32
	blocks  []int32
	fill    int
	points  int // live points in the subtree (maintained by updates)
	// overflow is the live points in a leaf's overflow chains; Insert
	// repacks the leaf when they pass its share of points (see repack).
	overflow int
}

// RSMI is the learned spatial index. It is not safe for concurrent use.
type RSMI struct {
	opts  Options
	store *store.Manager
	root  *node
	n     int // live points

	// side is the side of every internal node's grid, and grid[c·side + r]
	// the curve value of the cell in column c and row r: the index of its
	// child. cellGrids[k] is the same table for a leaf's 2^k × 2^k cells.
	side      int
	grid      []int32
	cellGrids [maxLeafOrder + 1][]int32

	// blockMBR caches the MBR of every block (base and inserted), extended
	// on insertion; not shrunk on deletion (conservative, stays correct),
	// and recomputed for the blocks a repack refills.
	blockMBR []geom.Rect
	// chainHeads[id] is the first overflow block chained after base block
	// id — the block's Next — and NilBlock when it has none, or when id is
	// an overflow block: what lets a walk step from one base block of a leaf
	// to the next without loading either (see blockCursor). A base block's
	// chain ends in NilBlock; no link joins two base blocks.
	chainHeads []int32
	// empty holds the overflow blocks with no live point, which Insert
	// reuses before it allocates one (reuseEmpty): those in a chain, and
	// those a repack left over, unlinked and in no leaf and no chain.
	// linkChains derives it from the blocks at load.
	empty blockSet

	buildTime time.Duration
	leaves    int
	height    int
	inserted  int // insertions since build/rebuild (drives RSMIr policy)
	repacks   int // leaf repacks since build/rebuild
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
		opts:  opts,
		store: store.NewManager(opts.BlockCapacity),
		n:     len(work),
	}
	t.side, t.grid = gridCells(opts)
	t.cellGrids = leafGrids(opts.Curve)
	t.root = t.build(work, 1)
	t.buildTime = time.Since(start)
	return t
}

// build recursively constructs the sub-model for pts at the given depth.
// pts may be reordered.
func (t *RSMI) build(pts []geom.Point, depth int) *node {
	if len(pts) <= t.opts.PartitionThreshold || depth >= maxDepth {
		return t.buildLeaf(pts, depth)
	}
	return t.buildInternal(pts, depth)
}

// buildLeaf orders pts by their rank-space curve value (§3.1), groups them
// by the leaf's cells and packs them into blocks. The paper trains an MLP to
// map a point to its block; the cells tabulate that map exactly. The leaf's
// curve grid is cut into 2^k × 2^k aligned cells (k = leafOrder), and an
// aligned cell is one contiguous run of the Hilbert or Z order, so a cell's
// points take one run of the leaf's positions. The leaf keeps the cuts — the
// first point of every column by (x, then y) and of every row by (y, then
// x) — and the runs' bounds, and trains nothing. As at internal nodes, the
// points are grouped by the cell the cuts give them, not by the grid
// coordinates the cuts were read from: copies of one point that the
// ordering split across a cut all go to the later cell, so a point query is
// exact by construction. Leaves are the deepest nodes, so the height is
// recorded here: the leaf built for a cell that took every point of its
// node sits one level below any depth build saw.
func (t *RSMI) buildLeaf(pts []geom.Point, depth int) *node {
	t.height = max(t.height, depth)
	ordered, cols, rows, order := t.orderLeaf(pts)
	k := leafOrder(len(ordered), t.opts.BlockCapacity)
	n := &node{
		leaf:   true,
		mbr:    geom.BoundingRect(ordered),
		order:  uint8(k),
		fill:   t.opts.BlockCapacity,
		points: len(ordered),
	}
	n.cols = gridCuts(ordered, cols, order-k, k, geom.Point.Less)
	n.rowCuts = gridCuts(ordered, rows, order-k, k, lessYX)
	n.starts = groupByCell(ordered, 1<<(2*k), func(p geom.Point) int { return t.leafCell(n, p) })

	first, count := t.store.Pack(ordered)
	n.blocks = make([]int32, count)
	for i := range n.blocks {
		// The leaf's list orders its blocks, so Pack's links between them
		// go: a base block's Next is its overflow chain's head.
		b := t.store.Peek(first + i)
		b.Prev, b.Next = store.NilBlock, store.NilBlock
		n.blocks[i] = int32(b.ID)
		t.trackBlock(b.MBR())
	}
	t.leaves++
	return n
}

// maxLeafOrder bounds a leaf's cells at 8 × 8 (see leafOrder).
const maxLeafOrder = 3

// leafOrder returns k for a leaf of the given number of points in blocks of
// the given capacity: its cells are 2^k × 2^k, the most, up to
// maxLeafOrder, that put no more than six cells in a block's worth of
// points. A cell that small mostly lies in one block, so a point query
// reads about one; finer cells would read little less, and an 8 × 8 table
// costs 484 bytes, 0.6 B a point on an eight-block leaf, where 4 × 4 costs
// 0.2.
func leafOrder(points, capacity int) uint {
	k := uint(0)
	for k < maxLeafOrder && capacity<<(2*k+2) <= 6*points {
		k++
	}
	return k
}

// gridCuts returns the cuts between the 2^k columns (or rows) of a leaf's
// cells, for pts whose grid coordinates are g: cut j is the least point by
// less of those whose coordinate g[i]>>shift — whose column — is j or more,
// for every j from 1 to the last column that holds a point. The cuts ascend
// by less, and a point of pts not less than cut j lies in column j or
// after it (or is a copy of one that does).
func gridCuts(pts []geom.Point, g []uint32, shift, k uint, less func(a, b geom.Point) bool) []geom.Point {
	first := make([]geom.Point, 1<<k)
	held := make([]bool, 1<<k)
	last := 0
	for i, p := range pts {
		c := int(g[i] >> shift)
		if !held[c] || less(p, first[c]) {
			first[c], held[c] = p, true
		}
		last = max(last, c)
	}
	cuts := make([]geom.Point, last)
	for j := last; j > 0; j-- {
		cuts[j-1] = first[j]
		if j < last && (!held[j] || less(cuts[j], cuts[j-1])) {
			cuts[j-1] = cuts[j]
		}
	}
	return cuts
}

// lessYX orders points by (y, then x), the order row cuts compare in.
func lessYX(a, b geom.Point) bool { return a.Y < b.Y || a.Y == b.Y && a.X < b.X }

// groupByCell reorders pts by the cell cellOf gives each, keeping their order
// within a cell, and returns the cells' prefix counts: cell c's points are
// pts[start[c]:start[c+1]].
func groupByCell(pts []geom.Point, cells int, cellOf func(geom.Point) int) (start []int32) {
	of := make([]int32, len(pts))
	start = make([]int32, cells+1)
	for i, p := range pts {
		c := cellOf(p)
		of[i] = int32(c)
		start[c+1]++
	}
	for c := range cells {
		start[c+1] += start[c]
	}
	grouped := make([]geom.Point, len(pts))
	next := slices.Clone(start[:cells])
	for i, p := range pts {
		grouped[next[of[i]]] = p
		next[of[i]]++
	}
	copy(pts, grouped)
	return start
}

// orderLeaf orders leaf points for packing — rank-space curve order by
// default (§3.1), raw-grid curve order under the A1 ablation — and returns
// each ordered point's column and row on the curve's grid and the curve's
// order.
func (t *RSMI) orderLeaf(pts []geom.Point) (ordered []geom.Point, cols, rows []uint32, order uint) {
	if !t.opts.RawGridLeafOrder {
		return rank.OrderOnGrid(pts, t.opts.Curve)
	}
	norm := geom.BoundingRect(pts)
	curve := sfc.New(t.opts.Curve, sfc.OrderFor(len(pts)))
	side := float64(curve.Side() - 1)
	type cp struct {
		cv     uint64
		gx, gy uint32
		p      geom.Point
	}
	cps := make([]cp, len(pts))
	for i, p := range pts {
		nx, ny := normalise(norm, p)
		gx, gy := uint32(nx*side), uint32(ny*side)
		cps[i] = cp{curve.Value(gx, gy), gx, gy, p}
	}
	slices.SortFunc(cps, func(a, b cp) int {
		return cmp.Or(cmp.Compare(a.cv, b.cv), a.p.Compare(b.p))
	})
	ordered = make([]geom.Point, len(cps))
	cols, rows = make([]uint32, len(cps)), make([]uint32, len(cps))
	for i, c := range cps {
		ordered[i], cols[i], rows[i] = c.p, c.gx, c.gy
	}
	return ordered, cols, rows, curve.Order()
}

// buildInternal cuts pts into the non-regular grid of §3.2 and recurses into
// its cells: `side` columns of equal count by x, then each column into
// `side` cells of equal count by y. The paper trains an MLP to learn which
// cell a point falls in; the cuts are that function exactly, so the node
// keeps them instead of a model and trains nothing. The cuts compare points
// in the orders rank.Ranks ranks them: a column cut by (x, then y), a row cut
// by (y, then x). The points are grouped by cell, the lookup descent
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
	start := groupByCell(pts, cells, func(p geom.Point) int { return t.cell(n, p) })

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
	return 1 << order, curveTable(o.Curve, order)
}

// leafGrids returns the tables from a leaf cell's column and row to its
// curve value, one for every leaf order (see RSMI.cellGrids).
func leafGrids(kind sfc.Kind) (grids [maxLeafOrder + 1][]int32) {
	for k := range grids {
		grids[k] = curveTable(kind, uint(k))
	}
	return grids
}

// curveTable returns the curve values of the cells of a 2^order × 2^order
// grid, the cell in column c and row r at c<<order | r. An order-0 grid is
// one cell.
func curveTable(kind sfc.Kind, order uint) []int32 {
	if order == 0 {
		return []int32{0}
	}
	curve := sfc.New(kind, order)
	side := curve.Side()
	grid := make([]int32, side*side)
	for c := range side {
		for r := range side {
			grid[c*side+r] = int32(curve.Value(c, r))
		}
	}
	return grid
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
	c := countX(n.cols, p)
	return int(t.grid[c*t.side+countY(n.rows[c], p)])
}

// leafCell is cell for leaf n: the curve value of the leaf's cell that p
// falls in. Build, queries, updates and load all find a point's leaf cell
// through this one method.
func (t *RSMI) leafCell(n *node, p geom.Point) int {
	return int(t.cellGrids[n.order][countX(n.cols, p)<<n.order|countY(n.rowCuts, p)])
}

// countX returns the number of cuts at or before p by (x, then y) — those p
// is not Less than — of cuts ascending in that order. It counts the cuts
// whose x is at most p's without a branch, then takes back the last of them
// while they tie with p on x and lie above it on y.
func countX(cuts []geom.Point, p geom.Point) int {
	c := 0
	for _, cut := range cuts {
		c += b2i(cut.X <= p.X)
	}
	for c > 0 && cuts[c-1].X == p.X && cuts[c-1].Y > p.Y {
		c--
	}
	return c
}

// countY is countX by (y, then x), for row cuts.
func countY(cuts []geom.Point, p geom.Point) int {
	c := 0
	for _, cut := range cuts {
		c += b2i(cut.Y <= p.Y)
	}
	for c > 0 && cuts[c-1].Y == p.Y && cuts[c-1].X > p.X {
		c--
	}
	return c
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag read, not
// a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cellBlocks returns the base blocks of leaf n's cell c as positions
// [lo, hi] of the leaf's block list — those of the run of positions its
// packed points took, or, for a cell that took none, the one block its
// position falls in — and the slot of block lo the run starts at, where a
// search for the cell's points begins.
func (t *RSMI) cellBlocks(n *node, c int) (lo, hi, slot int) {
	b := n.fill
	start, end := int(n.starts[c]), int(n.starts[c+1])
	lo = min(start/b, len(n.blocks)-1)
	hi = max(lo, (end-1)/b)
	return lo, hi, start - lo*b
}

// normalise maps p into the unit square relative to norm; degenerate spans
// map to 0.5. It places points on the raw grid of the A1 ablation.
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

// trackBlock records a newly allocated block: its MBR, and no chain.
func (t *RSMI) trackBlock(r geom.Rect) {
	t.blockMBR = append(t.blockMBR, r)
	t.chainHeads = append(t.chainHeads, store.NilBlock)
}

// linkChains derives from the leaves' block lists and the blocks' links
// what a loaded index keeps beside its blocks: the chain head of every base
// block (t.chainHeads), every leaf's overflow points, and the empty set. It
// checks the structure every walk trusts, since a snapshot can say
// anything: each block is reached at most once — named by one leaf's list
// as a base block, or in the overflow chain hung off one — a base block is
// not Inserted and has no back link, every chained block is Inserted and
// links back to the block before it, and a block reached by neither is one
// a repack left over: Inserted, unlinked and holding no point. A chain that
// loops reaches a block twice.
func (t *RSMI) linkChains() error {
	blocks := t.store.NumBlocks()
	t.chainHeads = slices.Repeat([]int32{store.NilBlock}, blocks)
	t.empty = blockSet{}
	reached := make([]bool, blocks)
	// follow walks the list from id on, after block prev, and returns the
	// live points it holds.
	follow := func(prev, id int) (live int, err error) {
		for id != store.NilBlock {
			b := t.store.Peek(id)
			switch {
			case b == nil:
				return live, fmt.Errorf("core: block %d links to %d, outside the store", prev, id)
			case reached[id]:
				return live, fmt.Errorf("core: block %d is reached twice (the list loops at block %d)", id, prev)
			case !b.Inserted:
				return live, fmt.Errorf("core: block %d is chained but not an overflow block", id)
			case b.Prev != prev:
				return live, fmt.Errorf("core: block %d links back to %d, not to %d before it", id, b.Prev, prev)
			}
			reached[id] = true
			if b.Live() == 0 {
				t.empty.add(id)
			}
			live += b.Live()
			prev, id = id, b.Next
		}
		return live, nil
	}
	var walk func(n *node) error
	walk = func(n *node) error {
		if n == nil {
			return nil
		}
		for _, c := range n.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		if !n.leaf {
			return nil
		}
		n.overflow = 0
		for _, id := range n.blocks {
			b := t.store.Peek(int(id))
			switch {
			case reached[id]:
				return fmt.Errorf("core: block %d is named twice by the leaves' block lists", id)
			case b.Inserted:
				return fmt.Errorf("core: a leaf names overflow block %d as a base block", id)
			case b.Prev != store.NilBlock:
				return fmt.Errorf("core: base block %d links back to %d", id, b.Prev)
			}
			reached[id] = true
			t.chainHeads[id] = int32(b.Next)
			live, err := follow(int(id), b.Next)
			if err != nil {
				return err
			}
			n.overflow += live
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	for id, ok := range reached {
		if ok {
			continue
		}
		if b := t.store.Peek(id); !b.Inserted || b.Live() > 0 || b.Prev != store.NilBlock || b.Next != store.NilBlock {
			return fmt.Errorf("core: block %d is reached by no leaf and no chain, and is no empty unlinked overflow block", id)
		}
		t.empty.add(id)
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

// ErrorBounds returns Table 4's error bounds in blocks (M.err_l of Eq. 4,
// M.err_a of Eq. 5) for leaves that tabulate their cells: a point query
// starts at the first block of its point's cell, so errLow is the widest
// cell's base blocks less one and errHigh is 0.
func (t *RSMI) ErrorBounds() (errLow, errHigh int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		for c := 0; c+1 < len(n.starts); c++ {
			lo, hi, _ := t.cellBlocks(n, c)
			errLow = max(errLow, hi-lo)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return errLow, 0
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
		// The subtree MBR, the cuts, and a leaf's prefix counts and block
		// list.
		modelBytes += 4*8 + int64(len(n.cols)+len(n.rowCuts))*16 + int64(len(n.starts)+len(n.blocks))*4
		for _, r := range n.rows {
			modelBytes += int64(len(r)) * 16
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	// Block MBR cache (4 float64 per block) supports every query, and the
	// chain heads (one int32 per block) every walk.
	modelBytes += int64(len(t.blockMBR))*32 + int64(len(t.chainHeads))*4
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
