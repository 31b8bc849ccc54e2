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
// curve). Its training fields are inert: no RSMI node trains.
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
// is RSMIv8, which stores every internal node's grid cuts and every leaf's
// cuts, cell counts and list of blocks; a file in any other format is
// refused with ErrSnapshotVersion.
func Load(r io.Reader) (*Index, error) {
	return core.Load(r)
}

// ErrSnapshotVersion is the error (wrapped in a message that names the
// version found) that Load and LoadSharded return for a snapshot in another
// format than RSMIv8 index streams and RSMISh2 sharded files: an earlier
// format cannot be converted, so the index must be rebuilt from its points
// and saved again.
var ErrSnapshotVersion = core.ErrSnapshotVersion

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
