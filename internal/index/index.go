// Package index defines the interface every spatial index in this repository
// implements, a brute-force reference index used as ground truth, and the
// recall metric of §6.2.3 / §6.2.4.
package index

import (
	"context"
	"sort"
	"time"

	"rsmi/internal/geom"
)

// Index is the common contract of RSMI and all baselines. Implementations
// are single-goroutine structures, matching the paper's per-query timing
// methodology.
type Index interface {
	// Name returns the display name used in the paper's figures
	// (e.g. "RSMI", "ZM", "Grid", "KDB", "HRR", "RR*").
	Name() string

	// PointQuery reports whether a point with exactly q's coordinates is
	// indexed (Algorithm 1 semantics: locate the stored point).
	PointQuery(q geom.Point) bool

	// WindowQuery returns the indexed points inside the window. Learned
	// indices may return approximate answers with no false positives
	// (§4.2); traditional indices return exact answers.
	WindowQuery(q geom.Rect) []geom.Point

	// KNN returns up to k nearest neighbours of q, closest first. Learned
	// indices may return approximate answers (§4.3).
	KNN(q geom.Point, k int) []geom.Point

	// Insert adds a point (§5 semantics).
	Insert(p geom.Point)

	// Delete removes the point with exactly p's coordinates, reporting
	// whether it was found (§5 semantics).
	Delete(p geom.Point) bool

	// Len returns the number of live indexed points.
	Len() int

	// Stats returns structural statistics for the size/height/accesses
	// experiments.
	Stats() Stats

	// ResetAccesses zeroes the block-access counter.
	ResetAccesses()
	// Accesses returns block accesses since the last reset. Inner tree
	// nodes count as blocks, matching the paper's external-memory cost
	// model; in-memory directories (grid cell table, learned models) do
	// not.
	Accesses() int64
}

// KNNQuery is one kNN request in a batch: up to K nearest neighbours of Q.
// It lives here, below every engine package, so the single-index core, the
// sharded engine, and the serving layer all share one batch-request type.
type KNNQuery struct {
	Q geom.Point
	K int
}

// Batch answers one query per element of qs by calling one on each, in
// order, on the caller's goroutine, and returns nil and the first error.
// It is every engine's batch execution: the paper answers one query per
// descent of the model tree, and the grouped batches this loop replaced
// made no benchmark workload faster (EXPERIMENTS.md "Derived batches").
func Batch[Q, R any](ctx context.Context, qs []Q, one func(context.Context, Q) (R, error)) ([]R, error) {
	out := make([]R, len(qs))
	for i, q := range qs {
		r, err := one(ctx, q)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Stats describes an index's structure and cost.
type Stats struct {
	// Name is the index display name.
	Name string
	// SizeBytes is the total index footprint: data blocks plus structural
	// overhead (internal nodes, models, directories, rank B-trees).
	SizeBytes int64
	// Height is the number of levels above the data blocks (RSMI: model
	// levels; trees: inner levels; Grid: 1; ZM: model levels).
	Height int
	// Blocks is the number of data blocks.
	Blocks int
	// BuildTime is how long construction took.
	BuildTime time.Duration
	// Models is the number of learned sub-models (zero for traditional
	// indices).
	Models int
	// ErrLow and ErrHigh are the learned prediction error bounds in blocks
	// (Table 4); zero for traditional indices.
	ErrLow, ErrHigh int
}

// SortByDistance sorts pts by ascending distance to q (ties broken by the
// canonical point order, making results deterministic and comparable).
func SortByDistance(pts []geom.Point, q geom.Point) {
	sort.Slice(pts, func(i, j int) bool {
		di, dj := q.Dist2(pts[i]), q.Dist2(pts[j])
		if di != dj {
			return di < dj
		}
		return pts[i].Less(pts[j])
	})
}

// Recall returns |got ∩ want| / |want|: the fraction of the ground-truth
// answer retrieved (§6.2.3). An empty ground truth counts as full recall.
func Recall(got, want []geom.Point) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[geom.Point]struct{}, len(want))
	for _, p := range want {
		set[p] = struct{}{}
	}
	hit := 0
	for _, p := range got {
		if _, ok := set[p]; ok {
			hit++
			delete(set, p) // count duplicates once
		}
	}
	return float64(hit) / float64(len(want))
}

// KNNRecall returns the fraction of true k nearest neighbours retrieved,
// which for kNN equals precision (§6.2.4). It tolerates distance ties by
// accepting any returned point not farther than the true k-th neighbour.
func KNNRecall(got, want []geom.Point, q geom.Point) float64 {
	if len(want) == 0 {
		return 1
	}
	kth := q.Dist2(want[len(want)-1])
	hit := 0
	for i, p := range got {
		if i >= len(want) {
			break
		}
		if q.Dist2(p) <= kth {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
