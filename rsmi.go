// Package rsmi is a from-scratch Go implementation of the Recursive Spatial
// Model Index from "Effectively Learning Spatial Indices" (Qi, Liu, Jensen,
// Kulik; PVLDB 13(11), 2020).
//
// An RSMI is a learned spatial index over 2-D points: data is ordered with a
// rank-space space-filling-curve technique, packed into fixed-capacity
// blocks, and a hierarchy of small neural networks learns to map coordinates
// to block ids. Queries replace tree traversals with model inference plus an
// error-bounded scan:
//
//   - PointQuery is exact (never a false negative),
//   - WindowQuery is approximate with no false positives (recall is
//     typically high; see EXPERIMENTS.md),
//   - KNN is approximate; AsExact() provides exact window/kNN answers via
//     the MBR-based RSMIa variant,
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

// Exact is the RSMIa view of an Index: exact window and kNN answers via
// MBR traversal.
type Exact = core.Exact

// Rebuilder is the RSMIr view of an Index: inserts trigger periodic
// rebuilds.
type Rebuilder = core.Rebuilder

// Stats describes an index's structure and cost.
type Stats = index.Stats

// New builds an RSMI over the points.
func New(pts []Point, opts Options) *Index {
	return core.New(pts, opts)
}

// Load deserialises an index previously saved with Index.WriteTo. Training
// at paper scale takes hours (§6.2.2 reports 16 h for the OSM data set), so
// production deployments build once and reload across restarts. The format
// is RSMIv2, which stores every sub-model as the compiled kernel the index
// predicts with; a file in the earlier format is refused with ErrSnapshotV1.
func Load(r io.Reader) (*Index, error) {
	return core.Load(r)
}

// ErrSnapshotV1 is the error (wrapped, for a sharded file) that Load and
// LoadSharded return for a snapshot saved before the RSMIv2 format: its
// error bounds were measured under a different predictor than this version
// runs, so the index must be rebuilt from its points and saved again.
var ErrSnapshotV1 = core.ErrSnapshotV1

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
