package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog writes one JSON line per request slower than a threshold,
// rate-limited by a token bucket so a latency regression cannot turn
// the log into its own outage. Lines are self-contained records — no
// state spans lines — so they grep and pipe into jq cleanly.
type SlowLog struct {
	w         io.Writer
	threshold time.Duration

	mu     sync.Mutex
	perSec float64
	burst  float64
	tokens float64
	last   time.Time

	logged     atomic.Int64
	suppressed atomic.Int64
}

// SlowLogRecord is the JSON shape of one slow-query log line (and the
// documented contract for log consumers).
type SlowLogRecord struct {
	Time      string  `json:"time"`
	TraceID   uint64  `json:"trace_id"`
	Op        string  `json:"op"`
	Transport string  `json:"transport"`
	Backend   string  `json:"backend,omitempty"`
	TotalUs   float64 `json:"total_us"`
	// Per-stage spans, in microseconds. Their sum approximates TotalUs;
	// the remainder is unattributed scheduling time.
	AdmissionUs   float64 `json:"admission_us"`
	DecodeUs      float64 `json:"decode_us"`
	ExecuteUs     float64 `json:"execute_us"`
	EncodeUs      float64 `json:"encode_us"`
	ShardsVisited int64   `json:"shards_visited,omitempty"`
	BlockAccesses int64   `json:"block_accesses,omitempty"`
}

// NewSlowLog logs requests slower than threshold to w, at most
// maxPerSec lines per second (<= 0 defaults to 10; bursts up to one
// second's budget). threshold <= 0 logs every traced request — useful
// for debugging, ruinous in production.
func NewSlowLog(w io.Writer, threshold time.Duration, maxPerSec float64) *SlowLog {
	if maxPerSec <= 0 {
		maxPerSec = 10
	}
	return &SlowLog{
		w:         w,
		threshold: threshold,
		perSec:    maxPerSec,
		burst:     maxPerSec,
		tokens:    maxPerSec,
		last:      time.Now(),
	}
}

// Threshold reports the configured slowness threshold.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Logged reports lines written; Suppressed reports lines dropped by the
// rate limit. Their sum is every request that crossed the threshold.
func (l *SlowLog) Logged() int64     { return l.logged.Load() }
func (l *SlowLog) Suppressed() int64 { return l.suppressed.Load() }

// maybeLog writes t's record if total crossed the threshold and the
// rate limit admits it.
func (l *SlowLog) maybeLog(t *Trace, total time.Duration) {
	if total < l.threshold {
		return
	}
	rec := SlowLogRecord{
		Time:          time.Now().UTC().Format(time.RFC3339Nano),
		TraceID:       t.ID,
		Op:            t.Op,
		Transport:     t.Transport,
		Backend:       t.Backend,
		TotalUs:       float64(total.Nanoseconds()) / 1e3,
		AdmissionUs:   float64(t.StageNS(StageAdmission)) / 1e3,
		DecodeUs:      float64(t.StageNS(StageDecode)) / 1e3,
		ExecuteUs:     float64(t.StageNS(StageExecute)) / 1e3,
		EncodeUs:      float64(t.StageNS(StageEncode)) / 1e3,
		ShardsVisited: t.Shards(),
		BlockAccesses: t.Accesses(),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.perSec
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	if l.tokens < 1 {
		l.mu.Unlock()
		l.suppressed.Add(1)
		return
	}
	l.tokens--
	_, werr := l.w.Write(b)
	l.mu.Unlock()
	if werr == nil {
		l.logged.Add(1)
	}
}
