// Package rsmi is a from-scratch Go implementation of the Recursive Spatial
// Model Index from "Effectively Learning Spatial Indices" (Qi, Liu, Jensen,
// Kulik; PVLDB 13(11), 2020).
//
// An RSMI is a learned spatial index over 2-D points: data is ordered with a
// rank-space space-filling-curve technique, packed into fixed-capacity
// blocks, and a hierarchy maps coordinates to block ids. The paper learns
// that map with small neural networks; here every node tabulates it exactly
// from grid cuts (README, "Deviations"). A point query replaces a tree
// traversal with a few cut counts plus a scan of the blocks they name:
//
//   - PointQuery is exact (never a false negative),
//   - WindowQuery and KNN are exact too: they walk the MBRs every node and
//     block keeps, as the paper's RSMIa variant does, rather than its
//     Algorithms 2 and 3 (README, "RSMI answers windows and kNN by the MBR
//     walk"),
//   - Insert/Delete support dynamic data, and AsRebuilder() adds the RSMIr
//     periodic-rebuild policy.
//
// # Quick start
//
//	pts := []rsmi.Point{ ... }
//	idx := rsmi.New(pts, rsmi.Options{})      // paper defaults
//	idx.PointQuery(rsmi.Pt(0.3, 0.7))
//	idx.WindowQuery(rsmi.NewRect(rsmi.Pt(0.2, 0.2), rsmi.Pt(0.4, 0.4)))
//	idx.KNN(rsmi.Pt(0.5, 0.5), 25)
//
// The internal packages implement every substrate and every baseline of the
// paper's evaluation (Grid File, K-D-B-tree, R*-tree, HRR, ZM); the
// cmd/rsmi-bench harness reproduces each table and figure. For concurrent
// serving, Sharded partitions the data across space-partitioned shards,
// each behind its own RWMutex; Shards: 1 is one lock over one index.
//
// The Engine interface (engine.go) is the v2 query API: context-aware,
// error-returning variants of every operation, implemented by Index,
// Sharded, and the baseline engines (one RWMutex over each internal
// baseline, concurrent.go), so the serving stack (internal/server,
// cmd/rsmi-serve -engine) drives any backend through one pipeline. It is
// the only surface of Sharded and the baseline engines; the context-free
// methods shown above are Index's index.Index surface, the one the paper's
// harness drives. See README.md for the package map and
// migration notes, EXPERIMENTS.md for measured results.
package rsmi

import (
	"io"

	"rsmi/internal/core"
	"rsmi/internal/extent"
	"rsmi/internal/geom"
	"rsmi/internal/index"
)

// Point is a 2-dimensional point.
type Point = geom.Point

// Rect is a closed axis-aligned rectangle (a window query).
type Rect = geom.Rect

// Options configures index construction; the zero value selects the paper's
// defaults (block capacity B=100, partition threshold N=10000, Hilbert
// curve, learning rate 0.01, 500 epochs).
type Options = core.Options

// Index is the learned spatial index (the paper's RSMI).
type Index = core.RSMI

// Rebuilder is the RSMIr view of an Index: inserts trigger periodic
// rebuilds.
type Rebuilder = core.Rebuilder

// Stats describes an index's structure and cost.
type Stats = index.Stats

// New builds an RSMI over the points.
func New(pts []Point, opts Options) *Index {
	return core.New(pts, opts)
}

// Load deserialises an index previously saved with Index.WriteTo. The
// paper's training takes hours at scale (§6.2.2 reports 16 h for the OSM
// data set), and even a build that trains nothing sorts every point, so
// production deployments build once and reload across restarts. The format
// is RSMIv7, which stores every internal node's grid cuts and every leaf's
// cuts, cell counts and list of blocks; a file in an earlier format is
// refused with ErrSnapshotV1 to ErrSnapshotV6.
func Load(r io.Reader) (*Index, error) {
	return core.Load(r)
}

// ErrSnapshotV1 is the error (wrapped, for a sharded file) that Load and
// LoadSharded return for a snapshot saved before the RSMIv2 format: its
// error bounds were measured under a different predictor than this version
// runs, so the index must be rebuilt from its points and saved again.
var ErrSnapshotV1 = core.ErrSnapshotV1

// ErrSnapshotV2 is the error (wrapped, for a sharded file) that Load and
// LoadSharded return for an RSMIv2 snapshot: it holds no point spans, the
// block ranges point queries scan, and they cannot be derived from it, so
// the index must be rebuilt from its points and saved again.
var ErrSnapshotV2 = core.ErrSnapshotV2

// ErrSnapshotV3 is the error (wrapped, for a sharded file) that Load and
// LoadSharded return for an RSMIv3 snapshot: its internal nodes are trained
// models, where this version descends by the grid's exact cuts, and cuts
// would not find its points in the subtrees the models put them in, so the
// index must be rebuilt from its points and saved again.
var ErrSnapshotV3 = core.ErrSnapshotV3

// ErrSnapshotV4 is the error (wrapped, for a sharded file) that Load and
// LoadSharded return for an RSMIv4 snapshot: its leaves are trained models,
// where this version looks points up in exact leaf cells, and the cells
// would not name the blocks the models filed its points under, so the index
// must be rebuilt from its points and saved again.
var ErrSnapshotV4 = core.ErrSnapshotV4

// ErrSnapshotV5 is the error (wrapped, for a sharded file) that Load and
// LoadSharded return for an RSMIv5 snapshot: its leaves own one range of
// block ids each, where this version's leaves name their blocks one by one
// so that a leaf can repack its own blocks, and the file holds no such
// lists, so the index must be rebuilt from its points and saved again.
var ErrSnapshotV5 = core.ErrSnapshotV5

// ErrSnapshotV6 is the error (wrapped, for a sharded file) that Load and
// LoadSharded return for an RSMIv6 snapshot: it holds the two PMFs that
// sized Algorithm 3's first kNN region, and this version answers kNN by the
// MBR walk and reads a stream without them, so the index must be rebuilt
// from its points and saved again.
var ErrSnapshotV6 = core.ErrSnapshotV6

// ErrNonFinitePoint is the error InsertContext returns, on every Engine, for
// a point with a NaN or infinite coordinate. The point is not inserted —
// folded into the MBRs above it, it would hide the points under them from
// every query; Index's context-free Insert drops it silently, and every
// constructor (New, NewSharded and the baseline engines) skips such points
// in its input.
var ErrNonFinitePoint = core.ErrNonFinitePoint

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect constructs the rectangle spanned by two corner points in any
// order.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// RectAround constructs the rectangle centred at c with the given full
// width and height.
func RectAround(c Point, width, height float64) Rect {
	return geom.RectAround(c, width, height)
}

// RectIndex indexes spatial objects with non-zero extent (rectangles) using
// a learned index over their centre points plus query expansion — the
// future-work extension of the paper's §7, implemented per [44, 48].
type RectIndex = extent.RectIndex

// NewRectIndex builds a RectIndex over the rectangles.
func NewRectIndex(rects []Rect, opts Options) *RectIndex {
	return extent.New(rects, opts)
}
