package rsmi

// The v2 query API: one context-aware, error-returning interface over the
// RSMI engines *and* the paper's baseline indexes, so the serving stack
// (internal/server, cmd/rsmi-serve) can put any backend behind the same
// HTTP/binary/TCP endpoints. "The Case for Learned Spatial Indexes"
// (Pandey et al., 2020) and "Evaluating Learned Spatial Indexes" (Pai et
// al.) both argue that learned spatial indexes must be compared inside a
// full query-processing pipeline under identical harnesses — this
// interface is that harness's contract.
//
// Every method takes a context.Context and returns an error, which is
// non-nil only when the context is cancelled or past its deadline — or,
// for InsertContext, when the point cannot be indexed.
// Sharded observes cancellation *between shard visits* of a window or kNN
// walk and between shard retrains of a rolling rebuild; Index and the
// baseline engines execute a single query in microseconds and check the
// context at entry. A batch checks it per element, through each element's
// single query.
//
// This is the only query surface of Sharded and the baseline engines. Index
// also keeps its context-free methods (PointQuery(q) bool, …): they are the
// index.Index surface the paper's harness (internal/bench) drives every
// index through.

import (
	"context"
)

// Engine is the context-aware queryable surface shared by every backend:
// Index, Sharded, and the baseline engines (NewBaselineEngine, each one
// RWMutex over a baseline index).
// It is the contract the serving layer (internal/server) executes against.
//
// Every engine answers everything exactly, with ExactWindowContext ≡
// WindowQueryContext and ExactKNNContext ≡ KNNContext: Index and Sharded
// walk the MBRs as the paper's RSMIa variant does (README, "RSMI answers
// windows and kNN by the MBR walk"), and the baseline engines run their own
// exact traversals. The Exact methods stay on the interface for the callers
// that name them (the planner's MultiEngine and benchmark/).
type Engine interface {
	// Name identifies the backend ("Sharded", "RSMI", "RR*", "Grid",
	// "KDB", …) in stats and bench reports.
	Name() string

	PointQueryContext(ctx context.Context, q Point) (bool, error)
	WindowQueryContext(ctx context.Context, q Rect) ([]Point, error)
	// WindowQueryAppend appends the window answer to dst and returns the
	// extended slice, so callers reusing result buffers across queries
	// avoid the per-query allocation. On error dst is returned unextended.
	WindowQueryAppend(ctx context.Context, dst []Point, q Rect) ([]Point, error)
	ExactWindowContext(ctx context.Context, q Rect) ([]Point, error)
	KNNContext(ctx context.Context, q Point, k int) ([]Point, error)
	ExactKNNContext(ctx context.Context, q Point, k int) ([]Point, error)

	// The batch set is, on every engine, a loop of the single-query
	// method over qs (internal/index.Batch): answers are element-wise
	// those of the single-query methods, and the first error ends the
	// batch. It stays on the interface only because benchmark/span.go's
	// tracedEngine forwards it; shrinking the interface waits until the
	// benchmark drives engines through an adapter of its own.
	BatchPointQueryContext(ctx context.Context, qs []Point) ([]bool, error)
	BatchWindowQueryContext(ctx context.Context, qs []Rect) ([][]Point, error)
	BatchKNNContext(ctx context.Context, qs []KNNQuery) ([][]Point, error)

	// InsertContext on every engine refuses a point with a NaN or infinite
	// coordinate with ErrNonFinitePoint and leaves the index as it was.
	InsertContext(ctx context.Context, p Point) error
	DeleteContext(ctx context.Context, p Point) (bool, error)
	// RebuildContext retrains learned engines from their live points; on
	// baseline engines it is a no-op (there is nothing to retrain).
	RebuildContext(ctx context.Context) error

	Len() int
	Stats() Stats
	Accesses() int64
	ResetAccesses()
}

// Every engine implements the v2 API (each baseline engine is a *locked).
var (
	_ Engine = (*Index)(nil)
	_ Engine = (*locked)(nil)
	_ Engine = (*Sharded)(nil)
)
