package rsmi

import (
	"io"

	"rsmi/internal/shard"
)

// Sharded partitions the data across S independent RSMI instances, each
// covering a contiguous run of the rank-space curve ordering: a window
// query is answered by the shards its rectangle overlaps, one after another
// on the caller's goroutine, kNN searches the shards best-first — nearest
// region first, stopping at the distance of the k-th candidate — and a
// batch is a loop of single queries. Updates take only the owning shard's
// lock, so updates on different shards proceed concurrently. Rebuild is
// rolling — one shard retrains at a time while the others keep serving. It
// is the one way to serve the learned index concurrently: Shards: 1 is one
// RWMutex over one RSMI. Its query surface is Engine, and it keeps the
// correctness guarantees of the single-index RSMI: exact point queries,
// window answers with no false positives, and exact ExactWindowContext /
// ExactKNNContext. See EXPERIMENTS.md ("One concurrent RSMI") for how
// Shards: 1 compares with the RWMutex wrapper it replaced.
type Sharded = shard.Sharded

// ShardOptions configures a Sharded index; the zero value selects
// GOMAXPROCS shards and paper-default per-shard options.
type ShardOptions = shard.Options

// KNNQuery is one kNN request in a batch (see BatchKNNContext): up to K
// nearest neighbours of Q.
type KNNQuery = shard.KNNQuery

// NewSharded builds a sharded RSMI over the points; shards build (and
// train) in parallel.
func NewSharded(pts []Point, opts ShardOptions) *Sharded {
	return shard.New(pts, opts)
}

// LoadSharded deserialises a sharded index previously saved with
// Sharded.WriteTo, so a server can restart without retraining any shard. A
// file whose shards are in the pre-RSMIv2 format is refused with
// ErrSnapshotV1.
func LoadSharded(r io.Reader) (*Sharded, error) {
	return shard.Load(r)
}
