// Package obs is the serving tier's observability substrate: a pooled
// per-request trace (stage spans, shards visited, block accesses)
// threaded through the request path via context, an atomic 1-in-N
// sampler, and a rate-limited structured slow-query log.
//
// The package exists to make the paper's accesses-vs-time distinction
// visible per request ("The Case for Learned Spatial Indexes" frames
// evaluation around block accesses, not just wall-clock): a trace
// attributes one request's latency to admission vs decode vs plan vs
// execute vs encode, and carries the block-access count alongside.
//
// # Cost model
//
// Everything is designed so the untraced path pays nothing measurable:
// every Trace method is a no-op on a nil receiver, FromContext on a
// context without a trace is one allocation-free Value lookup, and
// Observer.ShouldTrace with sampling off is a nil check. Traces are
// recycled through a sync.Pool, so even the traced path allocates only
// the context carrying the trace. TestUntracedPathAllocs asserts the
// untraced primitives at zero allocations the same way the wire
// encoders are pinned.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one segment of a request's lifecycle. Stages are
// disjoint: their spans sum to (roughly) the request's total, which is
// what makes the slow-query log and EXPLAIN breakdowns readable.
type Stage uint8

const (
	// StageAdmission spans request arrival to passing the admission gate.
	StageAdmission Stage = iota
	// StageDecode spans wire decode and validation.
	StageDecode
	// StagePlan spans query planning: selectivity estimation and the
	// cost-based backend choice (SQL and planner-served requests only).
	StagePlan
	// StageExecute spans engine execution (including shard fan-out).
	StageExecute
	// StageEncode spans response encoding and the write to the wire.
	StageEncode
	// NumStages counts the stages; valid Stage values are < NumStages.
	NumStages
)

var stageNames = [NumStages]string{"admission", "decode", "plan", "execute", "encode"}

// String names the stage as it appears in logs, EXPLAIN output, and the
// loadgen breakdown table.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Trace accumulates one request's observability record. A nil *Trace is
// the untraced request: every method no-ops, so call sites thread a
// maybe-nil trace without branching. Fields written concurrently (a
// shard fan-out runs AddShards from worker goroutines) are atomics.
//
//rsmi:nilsafe
type Trace struct {
	// ID is unique per process run; it correlates a slow-log line with
	// an EXPLAIN response or a client-side record.
	ID uint64
	// Op and Transport label the request ("window", "stream").
	Op        string
	Transport string
	// Backend is the engine's display name, set when execution starts.
	Backend string
	// Explain marks a trace the client asked to receive inline.
	Explain bool

	start    time.Time
	shards   atomic.Int64
	accesses atomic.Int64
	stages   [NumStages]atomic.Int64 // nanoseconds per stage
	plan     atomic.Pointer[PlanInfo]
}

// PlanInfo records the cost-based planner's decision for one request:
// the chosen backend and the estimated vs actual cost, so EXPLAIN makes
// mispredictions observable per query.
type PlanInfo struct {
	Backend      string
	EstCostUS    float64
	ActualCostUS float64
	EstRows      float64
}

var (
	tracePool = sync.Pool{New: func() interface{} { return new(Trace) }}
	traceID   atomic.Uint64
)

// StartTrace takes a trace from the pool, resets it, stamps its start
// time, and assigns a fresh id.
func StartTrace(op, transport string) *Trace {
	t := tracePool.Get().(*Trace)
	t.ID = traceID.Add(1)
	t.Op, t.Transport = op, transport
	t.Backend = ""
	t.Explain = false
	t.start = time.Now()
	t.shards.Store(0)
	t.accesses.Store(0)
	t.plan.Store(nil)
	for i := range t.stages {
		t.stages[i].Store(0)
	}
	return t
}

// Release returns the trace to the pool. The caller must not touch it
// afterwards.
func (t *Trace) Release() {
	if t != nil {
		tracePool.Put(t)
	}
}

// StartTime reports when the trace began (zero for a nil trace).
func (t *Trace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// ObserveStage adds d to a stage's span. Stages touched more than once
// accumulate.
//
//rsmi:noalloc
func (t *Trace) ObserveStage(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.stages[s].Add(d.Nanoseconds())
}

// MarkSince records now-since into the stage and returns now, so call
// sites chain consecutive stage boundaries with one clock read each.
// On a nil trace it returns the zero time without reading the clock —
// the untraced path never pays for time.Now. A zero since means the
// boundary was never measured (a late trace created after the stage
// ran, whose earlier marks hit a nil receiver): the stage is left
// unrecorded rather than charged now-minus-epoch.
//
//rsmi:noalloc
func (t *Trace) MarkSince(since time.Time, s Stage) time.Time {
	if t == nil {
		return time.Time{}
	}
	now := time.Now()
	if !since.IsZero() {
		t.stages[s].Add(now.Sub(since).Nanoseconds())
	}
	return now
}

// AddShards counts shards visited during execution.
//
//rsmi:noalloc
func (t *Trace) AddShards(n int) {
	if t != nil {
		t.shards.Add(int64(n))
	}
}

// AddAccesses counts block accesses attributed to this request. The
// server brackets the engine's cumulative counter, so under concurrency
// the count may include accesses of overlapping engine calls; it is
// exact when measured sequentially — the intended EXPLAIN debugging
// mode.
//
//rsmi:noalloc
func (t *Trace) AddAccesses(n int64) {
	if t != nil {
		t.accesses.Add(n)
	}
}

// SetPlan attaches the planner's decision to the trace (nil-safe; the
// pointer store keeps concurrent readers race-free).
func (t *Trace) SetPlan(p PlanInfo) {
	if t != nil {
		t.plan.Store(&p)
	}
}

// Plan reads the attached planner decision, nil when the request was
// not planned.
func (t *Trace) Plan() *PlanInfo {
	if t == nil {
		return nil
	}
	return t.plan.Load()
}

// StageNS reads one stage's accumulated nanoseconds.
func (t *Trace) StageNS(s Stage) int64 {
	if t == nil {
		return 0
	}
	return t.stages[s].Load()
}

// Shards reads the shards-visited count.
func (t *Trace) Shards() int64 {
	if t == nil {
		return 0
	}
	return t.shards.Load()
}

// Accesses reads the block-access count.
func (t *Trace) Accesses() int64 {
	if t == nil {
		return 0
	}
	return t.accesses.Load()
}

// ctxKey is the context key for the request trace. A zero-size key
// makes the Value lookup allocation-free.
type ctxKey struct{}

// With returns ctx carrying t. A nil trace returns ctx unchanged, so
// the untraced path allocates nothing.
//
//rsmi:noalloc
func With(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. The nil result
// composes with the nil-receiver methods above: engine internals call
// FromContext(ctx).AddShards(n) unconditionally and the untraced path
// pays one Value lookup.
//
//rsmi:noalloc
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Observer decides which requests are traced and owns the slow-query
// log. A nil *Observer never traces — servers built without one pay a
// single nil check per request.
//
//rsmi:nilsafe
type Observer struct {
	sampleN int64
	n       atomic.Int64
	slow    *SlowLog
}

// NewObserver traces one in sampleEvery requests (0 disables sampling)
// and feeds every completed trace to slow (nil disables the slow-query
// log). A non-nil SlowLog forces tracing of every request — outliers
// cannot be spotted without spans — which is the documented cost of
// enabling it.
func NewObserver(sampleEvery int, slow *SlowLog) *Observer {
	return &Observer{sampleN: int64(sampleEvery), slow: slow}
}

// ShouldTrace makes the per-request tracing decision: true when the
// slow-query log is on, or the atomic sample counter hits. Nil-safe.
//
//rsmi:noalloc
func (o *Observer) ShouldTrace() bool {
	if o == nil {
		return false
	}
	if o.slow != nil {
		return true
	}
	if o.sampleN <= 0 {
		return false
	}
	return o.n.Add(1)%o.sampleN == 0
}

// SlowLog returns the observer's slow-query log (nil when disabled).
func (o *Observer) SlowLog() *SlowLog {
	if o == nil {
		return nil
	}
	return o.slow
}

// Finish completes a trace: it offers it to the slow-query log, then
// recycles it. Safe on a nil observer (explain-only tracing) and a nil
// trace (untraced request); the caller must copy anything it still
// needs — EXPLAIN responses encode the trace before Finish.
func (o *Observer) Finish(t *Trace) {
	if t == nil {
		return
	}
	if o != nil && o.slow != nil {
		o.slow.maybeLog(t, time.Since(t.start))
	}
	t.Release()
}
