package core

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"rsmi/internal/geom"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// The paper's RSMI takes hours to train at scale (§6.2.2: 16 h for OSM on a
// CPU), and even an index that trains nothing reads and sorts every point to
// build, so a production deployment builds once and serves many restarts.
// This file provides a complete binary serialisation of a built index:
// options, blocks (their live points and overflow chains), the internal
// nodes' cuts, the leaves' cuts and cell counts, and MBRs. Each fact is
// stored once, and nothing the tree already fixes: a load counts the
// points, the leaves and the height off the tree it reads, and of the
// index's counters stores only the inserts and repacks since the build and
// the build time. A loaded index answers
// queries identically to the original: the cuts and counts are stored as
// they are, so every grouping in the file was made by the very lookups the
// loaded index runs.

// serialMagic identifies the index stream format, RSMIv9.
var serialMagic = [8]byte{'R', 'S', 'M', 'I', 'v', '9', 0, 0}

// ErrSnapshotVersion is returned, wrapped in a message that names the
// version found, by Load for an index stream of another format version than
// serialMagic's, and by the sharded loader for another header version. An
// earlier format cannot be converted: the lookups a loaded index runs must
// be the very ones that grouped its points, and each format change since
// RSMIv1 changed them or the facts stored beside them.
var ErrSnapshotVersion = errors.New("snapshot format version not supported; rebuild the index from its points and save it again")

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
	if err := writeOptions(w, t.opts); err != nil {
		return err
	}
	// Scalars: the counters the tree cannot tell.
	if err := put([]int64{int64(t.inserted), int64(t.repacks), int64(t.buildTime)}); err != nil {
		return fmt.Errorf("core: write scalars: %w", err)
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
	// Model tree.
	return t.encodeNode(w, t.root)
}

// optionBlockSize is the length of the option block: B, N and the curve, a
// word each, and the raw-grid flag.
const optionBlockSize = 3*8 + 1

// writeOptions writes o, resolved, as the stream's option block: B, N, the
// curve and the raw-grid flag.
func writeOptions(w io.Writer, o Options) error {
	b := make([]byte, 0, optionBlockSize)
	for _, v := range []int{o.BlockCapacity, o.PartitionThreshold, int(o.Curve)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	raw := uint8(0)
	if o.RawGridLeafOrder {
		raw = 1
	}
	if _, err := w.Write(append(b, raw)); err != nil {
		return fmt.Errorf("core: write options: %w", err)
	}
	return nil
}

// readOptions reads an option block written by writeOptions.
func readOptions(r io.Reader) (Options, error) {
	var b [optionBlockSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return Options{}, fmt.Errorf("core: read options: %w", err)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	return Options{
		BlockCapacity:      int(word(0)),
		PartitionThreshold: int(word(1)),
		Curve:              sfc.Kind(word(2)),
		RawGridLeafOrder:   b[8*3]&1 != 0,
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
		// The leaf's points, its fill, its base blocks behind their number,
		// its cuts, then its cells' prefix counts behind their number.
		b := binary.LittleEndian.AppendUint64(make([]byte, 0, 24+4*len(n.blocks)), uint64(n.points))
		b = binary.LittleEndian.AppendUint64(b, uint64(n.fill))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(n.blocks)))
		for _, id := range n.blocks {
			b = binary.LittleEndian.AppendUint32(b, uint32(id))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		if err := putCuts(w, n.cols); err != nil {
			return err
		}
		if err := putCuts(w, n.rowCuts); err != nil {
			return err
		}
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(n.starts)))
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

// getRect reads a rectangle written by putRect, refusing a NaN coordinate:
// an MBR of one contains no point, and stays so however far inserts extend
// it, so an empty node or shard would lose every point filed under it.
func getRect(r io.Reader) (geom.Rect, error) {
	var bits [4]uint64
	for i := range bits {
		if err := binary.Read(r, binary.LittleEndian, &bits[i]); err != nil {
			return geom.Rect{}, err
		}
		if math.IsNaN(math.Float64frombits(bits[i])) {
			return geom.Rect{}, errors.New("core: an MBR coordinate is NaN")
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
	if magic != serialMagic {
		if string(magic[:5]) != "RSMIv" {
			return nil, errors.New("core: not an RSMI index file")
		}
		name, _, _ := bytes.Cut(magic[:], []byte{0})
		return nil, fmt.Errorf("core: %q snapshot refused: %w", name, ErrSnapshotVersion)
	}
	get := func(v interface{}) error {
		return binary.Read(r, binary.LittleEndian, v)
	}
	opts, err := readOptions(r)
	if err != nil {
		return nil, err
	}
	t := &RSMI{opts: opts}
	// Scalars.
	var scalars [3]int64
	if err := get(&scalars); err != nil {
		return nil, fmt.Errorf("core: read scalars: %w", err)
	}
	t.inserted = int(scalars[0])
	t.repacks = int(scalars[1])
	t.buildTime = time.Duration(scalars[2])
	// Store, of blocks of B points.
	mgr, err := store.ReadManager(r, opts.BlockCapacity)
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
	// Model tree.
	if t.root, err = t.decodeNode(r, 0); err != nil {
		return nil, err
	}
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
		if err := t.decodeBlocks(r, n); err != nil {
			return nil, err
		}
		return n, t.decodeCells(r, n)
	}
	var points int64
	if err := binary.Read(r, binary.LittleEndian, &points); err != nil {
		return nil, err
	}
	n.points = int(points)
	// A cell's column and row index the curve table, and its curve value the
	// children: a node of another grid, or with more cuts than its grid has
	// room for, would walk off their ends. The options fix the grid's order,
	// which the stream does not repeat.
	order := gridOrder(t.opts)
	side := 1 << order
	n.order = uint8(order)
	t.useOrder(order)
	if n.cols, err = getCuts(r, side-1); err != nil {
		return nil, err
	}
	n.rows = make([][]geom.Point, len(n.cols)+1)
	for c := range n.rows {
		if n.rows[c], err = getCuts(r, side-1); err != nil {
			return nil, err
		}
	}
	var nChildren int64
	if err := binary.Read(r, binary.LittleEndian, &nChildren); err != nil {
		return nil, err
	}
	if nChildren != int64(side*side) {
		return nil, fmt.Errorf("core: internal node of %d cells in an index whose grid has %d", nChildren, side*side)
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

// decodeBlocks reads leaf n's point count, fill and block list: a fill of
// one to B points, at least one block, none past the store. That each block
// is named once, by one leaf, is linkChains' to check.
func (t *RSMI) decodeBlocks(r io.Reader, n *node) error {
	var f [3]uint64
	if err := binary.Read(r, binary.LittleEndian, &f); err != nil {
		return fmt.Errorf("core: read leaf: %w", err)
	}
	blocks := uint64(t.store.NumBlocks())
	if f[0] > math.MaxInt32 || f[1] < 1 || f[1] > uint64(t.opts.BlockCapacity) || f[2] < 1 || f[2] > blocks {
		return fmt.Errorf("core: leaf of %d points packed %d a block names %d blocks of the %d stored", f[0], f[1], f[2], blocks)
	}
	n.points, n.fill = int(f[0]), int(f[1])
	b := make([]byte, 4*f[2])
	if _, err := io.ReadFull(r, b); err != nil {
		return fmt.Errorf("core: read leaf blocks: %w", err)
	}
	n.blocks = make([]int32, f[2])
	for i := range n.blocks {
		id := binary.LittleEndian.Uint32(b[4*i:])
		if uint64(id) >= blocks {
			return fmt.Errorf("core: leaf names block %d of the %d stored", id, blocks)
		}
		n.blocks[i] = int32(id)
	}
	return nil
}

// decodeCells reads leaf n's cuts and prefix counts. Their number fixes the
// leaf's order k — 4^k + 1 counts for 2^k × 2^k cells — and a leaf of order
// k has at most 2^k − 1 cuts each way, ascending, so the cells index the
// leaf's grid table. The counts ascend and end within the leaf's blocks, so
// a cell's blocks are the leaf's; that they hold the cell's points is
// validate's to check.
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
	t.useOrder(uint(n.order))
	b := make([]byte, 4*count)
	if _, err := io.ReadFull(r, b); err != nil {
		return fmt.Errorf("core: read cell counts: %w", err)
	}
	n.starts = make([]int32, count)
	prev := int32(0)
	for i := range n.starts {
		v := int32(binary.LittleEndian.Uint32(b[4*i:]))
		if v < prev || v > 0 && (int(v)-1)/n.fill >= len(n.blocks) {
			return fmt.Errorf("core: leaf cell count %d of cell %d is below the one before it or past the leaf's %d blocks",
				v, i, len(n.blocks))
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
	// index holds a point that is not finite.
	for id, mbr := range t.blockMBR {
		for _, p := range t.store.Peek(id).Slots() {
			if !p.IsFinite() || !mbr.Contains(p) {
				return fmt.Errorf("core: block %d MBR %v does not cover its point %v", id, mbr, p)
			}
		}
	}
	// Every model's MBR covers the points under it — the root's is what a
	// shard routes by — and its count is theirs: the root's is Len.
	// Window and kNN queries prune by those MBRs, so a snapshot breaking them
	// would have them miss points. Every live point descends to the leaf
	// that holds its block, and that block's base block lies in the blocks
	// of the point's cell, so a point query finds every point the index
	// holds. That every block belongs to one leaf, once, linkChains has
	// checked.
	var walk func(n *node) (geom.Rect, int, error)
	walk = func(n *node) (geom.Rect, int, error) {
		covered, held := geom.EmptyRect(), 0
		switch {
		case n == nil:
			return covered, 0, nil
		case n.leaf:
			c := t.scan(n, 0, len(n.blocks)-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				covered = covered.Union(t.blockMBR[id])
				for _, p := range t.store.Peek(id).Slots() {
					if t.descend(p) != n {
						return covered, held, fmt.Errorf("core: point %v of block %d descends to another leaf", p, id)
					}
					cell := t.cell(n, p)
					if lo, hi, _ := t.cellBlocks(n, cell); c.pos < lo || c.pos > hi {
						return covered, held, fmt.Errorf("core: point %v lies in block %d at position %d, outside positions [%d,%d] of its cell %d",
							p, c.base, c.pos, lo, hi, cell)
					}
					held++
				}
			}
		default:
			for _, c := range n.children {
				r, m, err := walk(c)
				if err != nil {
					return covered, held, err
				}
				covered, held = covered.Union(r), held+m
			}
		}
		if !covered.IsEmpty() && !n.mbr.ContainsRect(covered) {
			return covered, held, fmt.Errorf("core: model MBR %v does not cover the blocks under it, %v", n.mbr, covered)
		}
		if held != n.points {
			return covered, held, fmt.Errorf("core: model claims %d points, the blocks under it hold %d", n.points, held)
		}
		return covered, held, nil
	}
	_, _, err := walk(t.root)
	return err
}
