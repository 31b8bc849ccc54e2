package server

// Wire types of the HTTP+JSON serving API. Every operation is a POST of a
// small JSON document to /v1/<op>; /v1/batch carries a heterogeneous list
// of operations in one request; /v1/stats and /healthz are GETs. All
// coordinates live in the index's data space (the unit square for the
// bundled data sets).

// PointJSON is a 2-D point on the wire.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// RectJSON is a closed axis-aligned rectangle on the wire.
type RectJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// KNNJSON is a kNN request body: the k nearest neighbours of (x, y).
type KNNJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	K int     `json:"k"`
}

// FoundResponse answers /v1/point.
type FoundResponse struct {
	Found bool       `json:"found"`
	Trace *TraceJSON `json:"trace,omitempty"`
}

// PointsResponse answers /v1/window and /v1/knn.
type PointsResponse struct {
	Count  int         `json:"count"`
	Points []PointJSON `json:"points"`
	Trace  *TraceJSON  `json:"trace,omitempty"`
}

// OKResponse answers /v1/insert.
type OKResponse struct {
	OK    bool       `json:"ok"`
	Trace *TraceJSON `json:"trace,omitempty"`
}

// DeletedResponse answers /v1/delete.
type DeletedResponse struct {
	Deleted bool       `json:"deleted"`
	Trace   *TraceJSON `json:"trace,omitempty"`
}

// TraceStageJSON is one stage's span inside an EXPLAIN trace.
type TraceStageJSON struct {
	Stage string  `json:"stage"`
	Us    float64 `json:"us"`
}

// PlanJSON is the cost-based planner's decision inside an EXPLAIN
// trace: the backend the query was routed to and its estimated vs
// actual cost, so mispredictions are observable per query.
type PlanJSON struct {
	Backend      string  `json:"backend"`
	EstCostUS    float64 `json:"est_cost_us"`
	ActualCostUS float64 `json:"actual_cost_us"`
	EstRows      float64 `json:"est_rows,omitempty"`
}

// TraceJSON is the per-query EXPLAIN record: requested with ?explain=1
// (JSON/binary HTTP) or the rsmibin explain op-flag bit (HTTP and
// stream), it rides inline with the response and surfaces the paper's
// block-access metric — plus the stage breakdown — per query.
//
// BlockAccesses is a bracket of the engine's cumulative counter around
// the request, so under concurrent load it may include overlapping
// engine calls; issue the query sequentially for exact per-query numbers.
type TraceJSON struct {
	ID            uint64           `json:"id"`
	Backend       string           `json:"backend,omitempty"`
	ShardsVisited int64            `json:"shards_visited"`
	BlockAccesses int64            `json:"block_accesses"`
	Stages        []TraceStageJSON `json:"stages"`
	Plan          *PlanJSON        `json:"plan,omitempty"`
}

// Batch operation kinds.
const (
	OpPoint  = "point"
	OpWindow = "window"
	OpKNN    = "knn"
	OpInsert = "insert"
	OpDelete = "delete"
	// OpSQL is a spatial SQL query (POST /v1/sql and the single-op
	// stream frame). It is rejected inside multi-op batches: a SQL
	// statement is its own batch of work.
	OpSQL = "sql"
	// OpSub / OpUnsub register and remove standing queries (geo
	// pub/sub). They exist only as single-op frames on the stream
	// transport — the persistent connection is the push channel the
	// notifications ride back on — and are rejected over HTTP and
	// inside multi-op batches.
	OpSub   = "sub"
	OpUnsub = "unsub"
)

// Subscription kinds inside an OpSub operation.
const (
	// SubWindow notifies on writes inside a fixed rectangle
	// (min_x…max_y).
	SubWindow = "window"
	// SubKNN notifies on changes to the k nearest neighbours of (x, y).
	SubKNN = "knn"
)

// BatchOp is one operation inside a /v1/batch request. Op selects the
// kind; the coordinate fields used depend on it (x/y for point, knn,
// insert, delete — plus k for knn; min_x…max_y for window; sql for
// sql).
type BatchOp struct {
	Op   string  `json:"op"`
	X    float64 `json:"x,omitempty"`
	Y    float64 `json:"y,omitempty"`
	K    int     `json:"k,omitempty"`
	MinX float64 `json:"min_x,omitempty"`
	MinY float64 `json:"min_y,omitempty"`
	MaxX float64 `json:"max_x,omitempty"`
	MaxY float64 `json:"max_y,omitempty"`
	SQL  string  `json:"sql,omitempty"`
	// SubID and SubKind drive the sub/unsub ops (stream transport
	// only): SubID is the client-chosen subscription id, SubKind the
	// subscription shape (SubWindow uses the window fields, SubKNN the
	// x/y/k fields).
	SubID   uint64 `json:"sub_id,omitempty"`
	SubKind string `json:"sub_kind,omitempty"`
}

// SQLRequest is the POST /v1/sql body: one statement in the spatial SQL
// dialect (see internal/sqlfe for the grammar). The answer is a
// PointsResponse — every query shape returns rows (a point probe
// answers with the probe point itself when present).
type SQLRequest struct {
	Query string `json:"query"`
}

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchResult is one per-op answer inside a /v1/batch response, in request
// order. The populated fields depend on the op kind.
type BatchResult struct {
	Found   bool        `json:"found,omitempty"`
	Deleted bool        `json:"deleted,omitempty"`
	OK      bool        `json:"ok,omitempty"`
	Count   int         `json:"count,omitempty"`
	Points  []PointJSON `json:"points,omitempty"`
}

// BatchResponse answers /v1/batch.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	Trace   *TraceJSON    `json:"trace,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// OpStats reports one operation's serving metrics in /v1/stats. The mean
// is exact (a running sum, not bucket midpoints); the percentiles —
// p999 included — are quarter-octave histogram estimates.
type OpStats struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50us  float64 `json:"p50_us"`
	P95us  float64 `json:"p95_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
}

// CoalesceStats is never filled: the request coalescer it reported on is
// gone (a single query executes directly on the goroutine that decoded
// it), and every field reads 0. The type and StatsResponse.Coalesce stay
// only because benchmark/layers.go reads st.Coalesce.MeanSize and a
// change to the server may not edit benchmark/; they leave with the next
// PR that may.
type CoalesceStats struct {
	Batches  int64   `json:"batches"`
	Queries  int64   `json:"queries"`
	MeanSize float64 `json:"mean_size"`
	MaxSize  int64   `json:"max_size"`
	Direct   int64   `json:"direct"`
}

// ReplicaInfo answers GET /v1/replica/info on a replication primary:
// the oplog epoch, its retained sequence range, and the rsmistream
// address replicas subscribe to for the feed.
type ReplicaInfo struct {
	Epoch      uint64 `json:"epoch"`
	FirstSeq   uint64 `json:"first_seq"`
	LastSeq    uint64 `json:"last_seq"`
	StreamAddr string `json:"stream_addr"`
}

// ReplicationStats reports replication state in /v1/stats. On a primary
// it carries the oplog position and live follower count; on a replica,
// its applied position, feed liveness, and re-bootstrap count.
type ReplicationStats struct {
	Role       string `json:"role"`
	Epoch      uint64 `json:"epoch"`
	FirstSeq   uint64 `json:"first_seq,omitempty"`
	LastSeq    uint64 `json:"last_seq,omitempty"`
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	// LagSeq and LagSeconds report a replica's distance behind the
	// primary in sequences and (skew-free, primary-clock) seconds; both
	// are exactly 0 on a caught-up replica.
	LagSeq     uint64  `json:"lag_seq,omitempty"`
	LagSeconds float64 `json:"lag_seconds,omitempty"`
	Followers  int64   `json:"followers,omitempty"`
	Connected  bool    `json:"connected,omitempty"`
	Resyncs    int64   `json:"resyncs,omitempty"`
}

// PlannerStatsJSON reports the cost-based planner's routing behaviour
// in /v1/stats (planner-served engines only): how many queries were
// planned, how they were distributed across backends, and how many cost
// estimates landed outside [est/2, 2·est].
type PlannerStatsJSON struct {
	Planned     int64            `json:"planned"`
	Mispredicts int64            `json:"mispredicts"`
	Routed      map[string]int64 `json:"routed"`
}

// SubStats reports the standing-query layer in /v1/stats: live
// subscription count, lifetime registration churn, and the
// notification fan-out tallies (Dropped counts notifications refused by
// a full per-connection outbox under drop-and-mark semantics).
type SubStats struct {
	Active       int64 `json:"active"`
	Subscribed   int64 `json:"subscribed"`
	Unsubscribed int64 `json:"unsubscribed"`
	Notified     int64 `json:"notified"`
	Dropped      int64 `json:"dropped"`
}

// StreamStats reports the stream transport's write path in /v1/stats:
// frames written, the socket writes that carried them (Frames ÷ Flushes
// is the group-commit ratio), and frames that overran the inline budget
// and lost their connection's read loop — a non-zero Takeovers
// rate says something holds a lock.
type StreamStats struct {
	Frames    int64 `json:"frames"`
	Flushes   int64 `json:"flushes"`
	Takeovers int64 `json:"takeovers"`
}

// StatsResponse answers /v1/stats.
type StatsResponse struct {
	// Engine is the backend's display name ("Sharded", "RR*", "Grid", …),
	// so monitoring can tell which index is behind the endpoint.
	Engine         string             `json:"engine,omitempty"`
	Points         int                `json:"points"`
	Shards         int                `json:"shards,omitempty"`
	UptimeSec      float64            `json:"uptime_sec"`
	BlockAccesses  int64              `json:"block_accesses"`
	InFlight       int64              `json:"in_flight"`
	Shed           int64              `json:"shed"`
	Rebuilds       int64              `json:"rebuilds"`
	RebuildRunning bool               `json:"rebuild_running"`
	Ops            map[string]OpStats `json:"ops"`
	Coalesce       CoalesceStats      `json:"coalesce"`
	Stream         StreamStats        `json:"stream"`
	Replication    *ReplicationStats  `json:"replication,omitempty"`
	Planner        *PlannerStatsJSON  `json:"planner,omitempty"`
	Subs           *SubStats          `json:"subs,omitempty"`
}
