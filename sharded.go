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
// rolling — one shard rebuilds at a time while the others keep serving. It
// is the one way to serve the learned index concurrently: Shards: 1 is one
// RWMutex over one RSMI. Its query surface is Engine, and every answer is
// exact, as the single-index RSMI's: windows and kNN by RSMIa's MBR walk,
// so ExactWindowContext and ExactKNNContext are the same calls as
// WindowQueryContext and KNNContext. See EXPERIMENTS.md ("One concurrent
// RSMI") for how Shards: 1 compares with the RWMutex wrapper it replaced.
type Sharded = shard.Sharded

// ShardOptions configures a Sharded index; the zero value selects
// GOMAXPROCS shards and paper-default per-shard options.
type ShardOptions = shard.Options

// KNNQuery is one kNN request in a batch (see BatchKNNContext): up to K
// nearest neighbours of Q.
type KNNQuery = shard.KNNQuery

// NewSharded builds a sharded RSMI over the points; shards build in
// parallel.
func NewSharded(pts []Point, opts ShardOptions) *Sharded {
	return shard.New(pts, opts)
}

// LoadSharded deserialises a sharded index previously saved with
// Sharded.WriteTo, so a server can restart without rebuilding any shard.
// The file is RSMISh2 and its shards RSMIv8 streams; a file in any other
// format is refused with ErrSnapshotVersion.
func LoadSharded(r io.Reader) (*Sharded, error) {
	return shard.Load(r)
}
