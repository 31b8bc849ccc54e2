package core

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"rsmi/internal/cdf"
	"rsmi/internal/geom"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// The paper's RSMI takes hours to train at scale (§6.2.2: 16 h for OSM on a
// CPU), and even an index that trains nothing reads and sorts every point to
// build, so a production deployment builds once and serves many restarts.
// This file provides a complete binary serialisation of a built index:
// options, blocks (including overflow chains and deleted slots), the
// internal nodes' cuts, the leaves' cuts and cell counts, MBRs, and the kNN
// PMFs. A loaded index answers queries identically to the original: the
// cuts and counts are stored as they are, so every grouping in the file was
// made by the very lookups the loaded index runs.

// serialMagic identifies the index file format, RSMIv5.
var serialMagic = [8]byte{'R', 'S', 'M', 'I', 'v', '5', 0, 0}

// serialMagicV4 is the magic of the format whose leaves were trained models.
var serialMagicV4 = [8]byte{'R', 'S', 'M', 'I', 'v', '4', 0, 0}

// serialMagicV3 is the magic of the format whose internal nodes were
// trained models.
var serialMagicV3 = [8]byte{'R', 'S', 'M', 'I', 'v', '3', 0, 0}

// serialMagicV2 is the magic of the format without point spans.
var serialMagicV2 = [8]byte{'R', 'S', 'M', 'I', 'v', '2', 0, 0}

// serialMagicV1 is the magic of the format that stored each sub-model as
// network weights plus a normalisation rectangle.
var serialMagicV1 = [8]byte{'R', 'S', 'M', 'I', 'v', '1', 0, 0}

// ErrSnapshotV1 is returned by Load for an RSMIv1 file. Such a
// file cannot be upgraded in place: its sub-model groupings and leaf error
// bounds were measured under the exp-based predictor that format implied,
// and the compiled kernel rounds differently on some inputs, so a point
// whose prediction sat on a rounding edge would be looked for in the wrong
// child or outside its leaf's scan range. Rebuild the index from its points
// and save it again.
var ErrSnapshotV1 = errors.New("core: RSMIv1 snapshot refused: its groupings and error bounds were measured " +
	"under a different predictor than this version runs and cannot be trusted; rebuild the index and save it again")

// ErrSnapshotV2 is returned by Load for an RSMIv2 file. Such a file holds no
// point spans, the block ranges point queries scan, and they cannot be
// derived from it: spans measured over the live points would be narrower
// than the saved index's after deletes, so the loaded index would not read
// what the saved one read. Rebuild the index from its points and save it
// again.
var ErrSnapshotV2 = errors.New("core: RSMIv2 snapshot refused: it holds no point spans, and spans derived " +
	"from its points would not be the ones the saved index scanned; rebuild the index and save it again")

// ErrSnapshotV3 is returned by Load for an RSMIv3 file. Its internal nodes
// are trained models, and its points were grouped by their predictions;
// this version's internal nodes cut the grid exactly, and cuts derived from
// the file's points would group some of them into other subtrees than the
// ones holding them. Rebuild the index from its points and save it again.
var ErrSnapshotV3 = errors.New("core: RSMIv3 snapshot refused: its internal nodes are trained models, " +
	"and this version descends by exact grid cuts that would not find its points where the models put them; " +
	"rebuild the index and save it again")

// ErrSnapshotV4 is returned by Load for an RSMIv4 file. Its leaves are
// trained models, and its points were filed under the blocks those models
// predicted; this version's leaves look a point up in a table of exact
// cells, and cells derived from the file's points would not name the blocks
// its inserts were filed under. Rebuild the index from its points and save
// it again.
var ErrSnapshotV4 = errors.New("core: RSMIv4 snapshot refused: its leaves are trained models, " +
	"and this version looks points up in exact leaf cells that would not find its points where the models put them; " +
	"rebuild the index and save it again")

// WriteTo serialises the index. It implements io.WriterTo.
func (t *RSMI) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if err := t.encode(cw); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("core: flush: %w", err)
	}
	return cw.n, nil
}

// Load deserialises an index written by WriteTo.
func Load(r io.Reader) (*RSMI, error) {
	br := bufio.NewReader(r)
	return decode(br)
}

// countWriter tracks bytes written.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (t *RSMI) encode(w io.Writer) error {
	put := func(v interface{}) error {
		return binary.Write(w, binary.LittleEndian, v)
	}
	if _, err := w.Write(serialMagic[:]); err != nil {
		return fmt.Errorf("core: write magic: %w", err)
	}
	if _, err := WriteOptions(w, t.opts, true); err != nil {
		return err
	}
	// Scalars.
	for _, v := range []interface{}{
		int64(t.n), int64(t.baseBlocks), int64(t.leaves),
		int64(t.height), int64(t.inserted),
		int64(t.lastTail), int64(t.buildTime),
	} {
		if err := put(v); err != nil {
			return fmt.Errorf("core: write scalars: %w", err)
		}
	}
	// Store.
	if _, err := t.store.WriteTo(w); err != nil {
		return err
	}
	// Block MBRs.
	if err := put(int64(len(t.blockMBR))); err != nil {
		return err
	}
	for _, r := range t.blockMBR {
		if err := putRect(w, r); err != nil {
			return err
		}
	}
	// PMFs.
	if _, err := t.pmfX.WriteTo(w); err != nil {
		return err
	}
	if _, err := t.pmfY.WriteTo(w); err != nil {
		return err
	}
	// Model tree.
	return t.encodeNode(w, t.root)
}

// optionBlockSize is the length of the option block: nine words and the
// raw-grid flag.
const optionBlockSize = 9*8 + 1

// WriteOptions writes o as the option block every index stream and the
// sharded header carry: B, N, the curve, the learning rate, the epochs, an
// early-stop loss, γ, Δ, the seed and the raw-grid flag. The loss, γ and Δ
// are constants (no early stop; γ = 100, Δ = 0.01, §4.3), and
// their words keep the bytes builds have always written: 0, 100 and 0.01
// for resolved options, the paper's defaults filled in, as an index stream
// stores them; 0, 0 and 0 for options as a caller gave them, as the sharded
// header stores them.
func WriteOptions(w io.Writer, o Options, resolved bool) (int64, error) {
	var gamma, delta uint64
	if resolved {
		gamma, delta = cdf.DefaultGamma, math.Float64bits(cdf.DefaultDelta)
	}
	b := make([]byte, 0, optionBlockSize)
	for _, v := range []uint64{
		uint64(o.BlockCapacity), uint64(o.PartitionThreshold), uint64(o.Curve),
		math.Float64bits(o.LearningRate), uint64(o.Epochs), 0, gamma, delta, uint64(o.Seed),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	raw := uint8(0)
	if o.RawGridLeafOrder {
		raw = 1
	}
	n, err := w.Write(append(b, raw))
	if err != nil {
		return int64(n), fmt.Errorf("core: write options: %w", err)
	}
	return int64(n), nil
}

// ReadOptions reads an option block written by WriteOptions. The loss and γ
// words shaped the build only, and the PMFs γ sized are stored whole, so
// they are read and dropped. Δ sizes every kNN search, and a loaded index
// must answer as the one that was saved, so a Δ word other than 0.01, or 0
// (unset, which always meant 0.01), is refused.
func ReadOptions(r io.Reader) (Options, error) {
	var b [optionBlockSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Options{}, fmt.Errorf("core: read options: %w", err)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	if delta := math.Float64frombits(word(7)); delta != 0 && delta != cdf.DefaultDelta {
		return Options{}, fmt.Errorf("core: the snapshot's kNN step Δ is %v, and this version runs Δ = %v (§4.3); rebuild the index from its points",
			delta, cdf.DefaultDelta)
	}
	return Options{
		BlockCapacity:      int(word(0)),
		PartitionThreshold: int(word(1)),
		Curve:              sfc.Kind(word(2)),
		LearningRate:       math.Float64frombits(word(3)),
		Epochs:             int(word(4)),
		Seed:               int64(word(8)),
		RawGridLeafOrder:   b[8*9]&1 != 0,
	}, nil
}

// Node tags in the tree stream.
const (
	tagNil      = uint8(0)
	tagLeaf     = uint8(1)
	tagInternal = uint8(2)
)

func (t *RSMI) encodeNode(w io.Writer, n *node) error {
	put := func(v interface{}) error {
		return binary.Write(w, binary.LittleEndian, v)
	}
	if n == nil {
		return put(tagNil)
	}
	tag := tagInternal
	if n.leaf {
		tag = tagLeaf
	}
	if err := put(tag); err != nil {
		return err
	}
	if err := putRect(w, n.mbr); err != nil {
		return err
	}
	if n.leaf {
		// The leaf's words, its cuts, then its cells' prefix counts behind
		// their number.
		for _, v := range []int64{int64(n.firstBlock), int64(n.numBlocks), int64(n.points)} {
			if err := put(v); err != nil {
				return err
			}
		}
		if err := putCuts(w, n.cols); err != nil {
			return err
		}
		if err := putCuts(w, n.rowCuts); err != nil {
			return err
		}
		b := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+4*len(n.starts)), uint64(len(n.starts)))
		for _, v := range n.starts {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		_, err := w.Write(b)
		return err
	}
	if err := put(int64(n.points)); err != nil {
		return err
	}
	// The cuts: the column cuts, then each column's row cuts, each list
	// behind its length.
	if err := putCuts(w, n.cols); err != nil {
		return err
	}
	for _, r := range n.rows {
		if err := putCuts(w, r); err != nil {
			return err
		}
	}
	if err := put(int64(len(n.children))); err != nil {
		return err
	}
	for _, c := range n.children {
		if err := t.encodeNode(w, c); err != nil {
			return err
		}
	}
	return nil
}

// putCuts writes a cut list: its length, then every cut's x and y.
func putCuts(w io.Writer, cuts []geom.Point) error {
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+16*len(cuts)), uint64(len(cuts)))
	for _, c := range cuts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Y))
	}
	_, err := w.Write(b)
	return err
}

// getCuts reads a cut list written by putCuts, refusing one longer than
// limit or holding a coordinate that is not finite.
func getCuts(r io.Reader, limit int) ([]geom.Point, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("core: read cuts: %w", err)
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("core: %d cuts where a grid of side %d has at most %d", n, limit+1, limit)
	}
	cuts := make([]geom.Point, n)
	var b [16]byte
	for i := range cuts {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, fmt.Errorf("core: read cuts: %w", err)
		}
		cuts[i] = geom.Pt(math.Float64frombits(binary.LittleEndian.Uint64(b[:])), math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
		if !cuts[i].IsFinite() {
			return nil, fmt.Errorf("core: cut %v is not finite", cuts[i])
		}
	}
	return cuts, nil
}

func putRect(w io.Writer, r geom.Rect) error {
	for _, f := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if err := binary.Write(w, binary.LittleEndian, math.Float64bits(f)); err != nil {
			return err
		}
	}
	return nil
}

func getRect(r io.Reader) (geom.Rect, error) {
	var bits [4]uint64
	for i := range bits {
		if err := binary.Read(r, binary.LittleEndian, &bits[i]); err != nil {
			return geom.Rect{}, err
		}
	}
	return geom.Rect{
		MinX: math.Float64frombits(bits[0]),
		MinY: math.Float64frombits(bits[1]),
		MaxX: math.Float64frombits(bits[2]),
		MaxY: math.Float64frombits(bits[3]),
	}, nil
}

func decode(r io.Reader) (*RSMI, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("core: read magic: %w", err)
	}
	switch magic {
	case serialMagicV1:
		return nil, ErrSnapshotV1
	case serialMagicV2:
		return nil, ErrSnapshotV2
	case serialMagicV3:
		return nil, ErrSnapshotV3
	case serialMagicV4:
		return nil, ErrSnapshotV4
	}
	if magic != serialMagic {
		return nil, errors.New("core: not an RSMI index file")
	}
	get := func(v interface{}) error {
		return binary.Read(r, binary.LittleEndian, v)
	}
	opts, err := ReadOptions(r)
	if err != nil {
		return nil, err
	}
	// Leaves map positions to blocks of B points.
	if opts.BlockCapacity < 1 {
		return nil, fmt.Errorf("core: block capacity %d", opts.BlockCapacity)
	}
	t := &RSMI{opts: opts, cellGrids: leafGrids(opts.Curve)}
	// Scalars.
	var scalars [7]int64
	for i := range scalars {
		if err := get(&scalars[i]); err != nil {
			return nil, fmt.Errorf("core: read scalars: %w", err)
		}
	}
	t.n = int(scalars[0])
	t.baseBlocks = int(scalars[1])
	t.leaves = int(scalars[2])
	t.height = int(scalars[3])
	t.inserted = int(scalars[4])
	t.lastTail = int(scalars[5])
	t.buildTime = time.Duration(scalars[6])
	// Store.
	mgr, err := store.ReadManager(r)
	if err != nil {
		return nil, err
	}
	t.store = mgr
	// Block MBRs.
	var nMBR int64
	if err := get(&nMBR); err != nil {
		return nil, err
	}
	if nMBR < 0 || nMBR != int64(mgr.NumBlocks()) {
		return nil, fmt.Errorf("core: MBR count %d does not match %d blocks", nMBR, mgr.NumBlocks())
	}
	t.blockMBR = make([]geom.Rect, nMBR)
	for i := range t.blockMBR {
		if t.blockMBR[i], err = getRect(r); err != nil {
			return nil, err
		}
	}
	// PMFs.
	if t.pmfX, err = cdf.ReadPMF(r); err != nil {
		return nil, err
	}
	if t.pmfY, err = cdf.ReadPMF(r); err != nil {
		return nil, err
	}
	// Model tree.
	if t.baseBlocks < 0 || t.baseBlocks > mgr.NumBlocks() {
		return nil, fmt.Errorf("core: baseBlocks %d outside the %d stored blocks", t.baseBlocks, mgr.NumBlocks())
	}
	if t.root, err = t.decodeNode(r, 0); err != nil {
		return nil, err
	}
	t.chainHeads = make([]int32, t.baseBlocks)
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// maxDecodeDepth bounds recursion on corrupt input.
const maxDecodeDepth = 64

// decodeNode reads a sub-tree.
func (t *RSMI) decodeNode(r io.Reader, depth int) (*node, error) {
	if depth > maxDecodeDepth {
		return nil, errors.New("core: model tree too deep (corrupt file?)")
	}
	var tag uint8
	if err := binary.Read(r, binary.LittleEndian, &tag); err != nil {
		return nil, fmt.Errorf("core: read node tag: %w", err)
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagLeaf, tagInternal:
	default:
		return nil, fmt.Errorf("core: bad node tag %d", tag)
	}
	n := &node{leaf: tag == tagLeaf}
	var err error
	if n.mbr, err = getRect(r); err != nil {
		return nil, err
	}
	if n.leaf {
		var f [3]int64
		for i := range f {
			if err := binary.Read(r, binary.LittleEndian, &f[i]); err != nil {
				return nil, err
			}
		}
		n.firstBlock, n.numBlocks, n.points = int(f[0]), int(f[1]), int(f[2])
		return n, t.decodeCells(r, n)
	}
	var points int64
	if err := binary.Read(r, binary.LittleEndian, &points); err != nil {
		return nil, err
	}
	n.points = int(points)
	// A cell's column and row index the grid table, and its curve value the
	// children: a node of another grid, or with more cuts than its grid has
	// room for, would walk off their ends. The options fix the grid; it is
	// made when the first internal node is read.
	if t.grid == nil {
		t.side, t.grid = gridCells(t.opts)
	}
	if n.cols, err = getCuts(r, t.side-1); err != nil {
		return nil, err
	}
	n.rows = make([][]geom.Point, len(n.cols)+1)
	for c := range n.rows {
		if n.rows[c], err = getCuts(r, t.side-1); err != nil {
			return nil, err
		}
	}
	var nChildren int64
	if err := binary.Read(r, binary.LittleEndian, &nChildren); err != nil {
		return nil, err
	}
	if nChildren != int64(len(t.grid)) {
		return nil, fmt.Errorf("core: internal node of %d cells in an index whose grid has %d", nChildren, len(t.grid))
	}
	// The children slice grows as they decode, not ahead of the stream.
	for i := int64(0); i < nChildren; i++ {
		c, err := t.decodeNode(r, depth+1)
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, c)
	}
	return n, nil
}

// decodeCells reads leaf n's cuts and prefix counts. Their number fixes the
// leaf's order k — 4^k + 1 counts for 2^k × 2^k cells — and a leaf of order
// k has at most 2^k − 1 cuts each way, ascending, so the cells index the
// leaf's grid table and a window's cell rectangle is exact. The counts
// ascend and end within the leaf's blocks, so a cell's blocks are the
// leaf's; that they hold the cell's points is validate's to check.
func (t *RSMI) decodeCells(r io.Reader, n *node) error {
	var err error
	if n.cols, err = getCuts(r, 1<<maxLeafOrder-1); err != nil {
		return err
	}
	if n.rowCuts, err = getCuts(r, 1<<maxLeafOrder-1); err != nil {
		return err
	}
	var count uint64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("core: read cell counts: %w", err)
	}
	for n.order = 0; n.order < maxLeafOrder && 1<<(2*n.order)+1 < count; n.order++ {
	}
	side := 1 << n.order
	if 1<<(2*n.order)+1 != count || len(n.cols) >= side || len(n.rowCuts) >= side {
		return fmt.Errorf("core: leaf of %d cell counts, %d column and %d row cuts is no 2^k × 2^k grid (k ≤ %d)",
			count, len(n.cols), len(n.rowCuts), maxLeafOrder)
	}
	if !slices.IsSortedFunc(n.cols, geom.Point.Compare) || !slices.IsSortedFunc(n.rowCuts, compareYX) {
		return errors.New("core: leaf cuts out of order")
	}
	b := make([]byte, 4*count)
	if _, err := io.ReadFull(r, b); err != nil {
		return fmt.Errorf("core: read cell counts: %w", err)
	}
	n.starts = make([]int32, count)
	prev := int32(0)
	for i := range n.starts {
		v := int32(binary.LittleEndian.Uint32(b[4*i:]))
		if v < prev || v > 0 && (int(v)-1)/t.opts.BlockCapacity >= n.numBlocks {
			return fmt.Errorf("core: leaf cell count %d of cell %d is below the one before it or past the leaf's %d blocks",
				v, i, n.numBlocks)
		}
		n.starts[i], prev = v, v
	}
	return nil
}

// compareYX orders points by (y, then x), the order row cuts ascend in.
func compareYX(a, b geom.Point) int {
	return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X))
}

// validate sanity-checks structural invariants after loading.
func (t *RSMI) validate() error {
	if t.root == nil {
		return errors.New("core: loaded index has no root")
	}
	// Every walk trusts the shape of the block list; a list with a cycle
	// would be walked forever.
	if err := t.linkChains(); err != nil {
		return err
	}
	// Point queries and deletes search a block only when its cached MBR
	// contains the probe, so a stored MBR that misses one of the block's
	// live points would hide that point: refuse the snapshot instead. No
	// index holds a point that is not finite, and Len counts what the
	// blocks hold.
	live := 0
	for id, mbr := range t.blockMBR {
		for _, p := range t.store.Peek(id).Slots() {
			if !p.IsFinite() || !mbr.Contains(p) {
				return fmt.Errorf("core: block %d MBR %v does not cover its point %v", id, mbr, p)
			}
			live++
		}
	}
	if live != t.n {
		return fmt.Errorf("core: index claims %d points, its blocks hold %d", t.n, live)
	}
	// The leaves, in depth-first order, tile the base blocks — every block
	// belongs to exactly one leaf — and every model's MBR covers the points
	// under it. The exact traversals prune by those MBRs, so a snapshot
	// breaking either would have them miss points or find one twice. Every
	// live point descends to the leaf that holds its block, and that block's
	// base block lies in the blocks of the point's cell, so a point query,
	// a window and a kNN round find every point the index holds.
	next := 0
	var walk func(n *node) (geom.Rect, error)
	walk = func(n *node) (geom.Rect, error) {
		covered := geom.EmptyRect()
		switch {
		case n == nil:
			return covered, nil
		case n.leaf:
			if n.firstBlock != next || n.numBlocks < 1 || n.firstBlock+n.numBlocks > t.baseBlocks {
				return covered, fmt.Errorf("core: leaf block range [%d,%d) does not continue the leaves before it at %d",
					n.firstBlock, n.firstBlock+n.numBlocks, next)
			}
			next += n.numBlocks
			c := t.scan(n.firstBlock, n.firstBlock+n.numBlocks-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				covered = covered.Union(t.blockMBR[id])
				for _, p := range t.store.Peek(id).Slots() {
					if t.descend(p) != n {
						return covered, fmt.Errorf("core: point %v of block %d descends to another leaf", p, id)
					}
					cell := t.leafCell(n, p)
					if lo, hi, _ := t.cellBlocks(n, cell); c.base < lo || c.base > hi {
						return covered, fmt.Errorf("core: point %v lies in block %d, outside blocks [%d,%d] of its cell %d",
							p, c.base, lo, hi, cell)
					}
				}
			}
		default:
			for _, c := range n.children {
				r, err := walk(c)
				if err != nil {
					return covered, err
				}
				covered = covered.Union(r)
			}
		}
		if !covered.IsEmpty() && !n.mbr.ContainsRect(covered) {
			return covered, fmt.Errorf("core: model MBR %v does not cover the blocks under it, %v", n.mbr, covered)
		}
		return covered, nil
	}
	if _, err := walk(t.root); err != nil {
		return err
	}
	if next != t.baseBlocks {
		return fmt.Errorf("core: leaves cover %d of %d base blocks", next, t.baseBlocks)
	}
	return nil
}
