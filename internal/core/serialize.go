package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"rsmi/internal/cdf"
	"rsmi/internal/geom"
	"rsmi/internal/mlp"
	"rsmi/internal/sfc"
	"rsmi/internal/store"
)

// The paper's RSMI takes hours to train at scale (§6.2.2: 16 h for OSM on a
// CPU), so a production deployment builds once and serves many restarts.
// This file provides a complete binary serialisation of a built index:
// options, blocks (including overflow chains and deleted slots), the
// compiled sub-models, MBRs, error bounds, and the kNN PMFs. A loaded index
// answers queries identically to the original: the kernels are stored as
// they are, nothing is recompiled, so every grouping and error bound in the
// file was measured from the very predictor the loaded index runs.

// serialMagic identifies the index file format, RSMIv2.
var serialMagic = [8]byte{'R', 'S', 'M', 'I', 'v', '2', 0, 0}

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
	// Options.
	o := t.opts
	raw := uint8(0)
	if o.RawGridLeafOrder {
		raw = 1
	}
	for _, v := range []interface{}{
		int64(o.BlockCapacity), int64(o.PartitionThreshold), int64(o.Curve),
		o.LearningRate, int64(o.Epochs), o.TargetLoss,
		int64(o.Gamma), o.Delta, o.Seed, raw,
	} {
		if err := put(v); err != nil {
			return fmt.Errorf("core: write options: %w", err)
		}
	}
	// Scalars.
	for _, v := range []interface{}{
		int64(t.n), int64(t.baseBlocks), int64(t.models), int64(t.leaves),
		int64(t.height), t.depthSum, t.seedSerial, int64(t.inserted),
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
	return encodeNode(w, t.root)
}

// Node tags in the tree stream.
const (
	tagNil      = uint8(0)
	tagLeaf     = uint8(1)
	tagInternal = uint8(2)
)

func encodeNode(w io.Writer, n *node) error {
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
	if _, err := n.kernel.WriteTo(w); err != nil {
		return err
	}
	for _, v := range []interface{}{
		int64(n.cells), int64(n.firstBlock), int64(n.numBlocks),
		int64(n.errUp), int64(n.errDown), int64(n.points),
	} {
		if err := put(v); err != nil {
			return err
		}
	}
	if n.leaf {
		return nil
	}
	if err := put(int64(len(n.children))); err != nil {
		return err
	}
	for _, c := range n.children {
		if err := encodeNode(w, c); err != nil {
			return err
		}
	}
	return nil
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
	if magic == serialMagicV1 {
		return nil, ErrSnapshotV1
	}
	if magic != serialMagic {
		return nil, errors.New("core: not an RSMI index file")
	}
	get := func(v interface{}) error {
		return binary.Read(r, binary.LittleEndian, v)
	}
	var (
		i64  [9]int64
		lr   float64
		tl   float64
		dlt  float64
		seed int64
		raw  uint8
	)
	// Options: capacity, threshold, curve, lr, epochs, targetLoss, gamma,
	// delta, seed, raw flag.
	if err := get(&i64[0]); err != nil {
		return nil, fmt.Errorf("core: read options: %w", err)
	}
	if err := get(&i64[1]); err != nil {
		return nil, err
	}
	if err := get(&i64[2]); err != nil {
		return nil, err
	}
	if err := get(&lr); err != nil {
		return nil, err
	}
	if err := get(&i64[3]); err != nil {
		return nil, err
	}
	if err := get(&tl); err != nil {
		return nil, err
	}
	if err := get(&i64[4]); err != nil {
		return nil, err
	}
	if err := get(&dlt); err != nil {
		return nil, err
	}
	if err := get(&seed); err != nil {
		return nil, err
	}
	if err := get(&raw); err != nil {
		return nil, err
	}
	opts := Options{
		BlockCapacity:      int(i64[0]),
		PartitionThreshold: int(i64[1]),
		Curve:              sfc.Kind(i64[2]),
		LearningRate:       lr,
		Epochs:             int(i64[3]),
		TargetLoss:         tl,
		Gamma:              int(i64[4]),
		Delta:              dlt,
		Seed:               seed,
		RawGridLeafOrder:   raw&1 != 0,
	}
	t := &RSMI{opts: opts}
	// Scalars.
	var scalars [10]int64
	for i := range scalars {
		if err := get(&scalars[i]); err != nil {
			return nil, fmt.Errorf("core: read scalars: %w", err)
		}
	}
	t.n = int(scalars[0])
	t.baseBlocks = int(scalars[1])
	t.models = int(scalars[2])
	t.leaves = int(scalars[3])
	t.height = int(scalars[4])
	t.depthSum = scalars[5]
	t.seedSerial = scalars[6]
	t.inserted = int(scalars[7])
	t.lastTail = int(scalars[8])
	t.buildTime = time.Duration(scalars[9])
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
	if t.root, err = decodeNode(r, 0); err != nil {
		return nil, err
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// maxDecodeDepth bounds recursion on corrupt input.
const maxDecodeDepth = 64

func decodeNode(r io.Reader, depth int) (*node, error) {
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
	if n.kernel, err = mlp.ReadKernel(r); err != nil {
		return nil, err
	}
	var f [6]int64
	for i := range f {
		if err := binary.Read(r, binary.LittleEndian, &f[i]); err != nil {
			return nil, err
		}
	}
	n.cells = int(f[0])
	n.firstBlock = int(f[1])
	n.numBlocks = int(f[2])
	n.errUp = int(f[3])
	n.errDown = int(f[4])
	n.points = int(f[5])
	// A kernel's class indexes the node's children or base blocks: one that
	// predicts among any other number of them would walk off the end.
	want := n.cells
	if n.leaf {
		want = n.numBlocks
	}
	if got := n.kernel.Classes(); got != want {
		return nil, fmt.Errorf("core: sub-model predicts %d classes for a node with %d", got, want)
	}
	if n.leaf {
		return n, nil
	}
	var nChildren int64
	if err := binary.Read(r, binary.LittleEndian, &nChildren); err != nil {
		return nil, err
	}
	const maxCells = 1 << 20
	if nChildren < 0 || nChildren > maxCells || int(nChildren) != n.cells {
		return nil, fmt.Errorf("core: child count %d does not match %d cells", nChildren, n.cells)
	}
	// The children slice grows as they decode, not ahead of the stream.
	for i := int64(0); i < nChildren; i++ {
		c, err := decodeNode(r, depth+1)
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, c)
	}
	return n, nil
}

// validate sanity-checks structural invariants after loading.
func (t *RSMI) validate() error {
	if t.root == nil {
		return errors.New("core: loaded index has no root")
	}
	if t.baseBlocks < 0 || t.baseBlocks > t.store.NumBlocks() {
		return fmt.Errorf("core: baseBlocks %d outside the %d stored blocks",
			t.baseBlocks, t.store.NumBlocks())
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
	// breaking either would have them miss points or find one twice.
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
			if n.errUp < 0 || n.errDown < 0 {
				return covered, errors.New("core: negative error bounds")
			}
			next += n.numBlocks
			c := t.scan(n.firstBlock, n.firstBlock+n.numBlocks-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				covered = covered.Union(t.blockMBR[id])
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
