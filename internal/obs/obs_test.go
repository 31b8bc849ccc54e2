package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestUntracedPathAllocs pins the untraced primitives — the only obs
// code the hot path executes — at zero allocations, the same way the
// wire encoders are pinned: a nil-observer tracing decision, a Value
// lookup on a trace-free context, and every nil-receiver recorder.
func TestUntracedPathAllocs(t *testing.T) {
	ctx := context.Background()
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		if o.ShouldTrace() {
			t.Fatal("nil observer traced")
		}
		tr := FromContext(ctx)
		if tr != nil {
			t.Fatal("trace on a bare context")
		}
		tr.AddShards(3)
		tr.AddAccesses(7)
		tr.ObserveStage(StageExecute, time.Microsecond)
		tr.MarkSince(time.Time{}, StageEncode)
		if With(ctx, tr) != ctx {
			t.Fatal("With(nil) changed the context")
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced path allocates %.1f times per request, want 0", allocs)
	}
}

// TestSamplerDisabledAllocs pins the sampling-miss path (observer
// present, sampling off) at zero allocations too.
func TestSamplerDisabledAllocs(t *testing.T) {
	o := NewObserver(0, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		if o.ShouldTrace() {
			t.Fatal("sampling-off observer traced")
		}
	})
	if allocs != 0 {
		t.Fatalf("sampling-off decision allocates %.1f times, want 0", allocs)
	}
}

func TestSamplerRate(t *testing.T) {
	o := NewObserver(8, nil)
	hits := 0
	for i := 0; i < 800; i++ {
		if o.ShouldTrace() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-8 sampler hit %d of 800, want 100", hits)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := StartTrace("window", "http")
	defer tr.Release()
	ctx := With(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	tr.AddShards(2)
	tr.AddAccesses(5)
	tr.ObserveStage(StageExecute, 250*time.Microsecond)
	if tr.Shards() != 2 || tr.Accesses() != 5 {
		t.Fatalf("counters = %d/%d, want 2/5", tr.Shards(), tr.Accesses())
	}
	if ns := tr.StageNS(StageExecute); ns != 250_000 {
		t.Fatalf("execute stage = %dns, want 250000", ns)
	}
}

// TestTraceReuseResets catches stale state leaking through the pool: a
// released trace picked up by a later request must start clean.
func TestTraceReuseResets(t *testing.T) {
	tr := StartTrace("knn", "stream")
	tr.Backend = "Sharded"
	tr.Explain = true
	tr.AddShards(9)
	tr.AddAccesses(9)
	tr.ObserveStage(StageDecode, time.Second)
	id := tr.ID
	tr.Release()
	// The pool is per-P; in a single-goroutine test the next Get returns
	// the released object.
	tr2 := StartTrace("point", "http")
	defer tr2.Release()
	if tr2.ID == id {
		t.Fatalf("trace id not refreshed: %d", tr2.ID)
	}
	if tr2.Backend != "" || tr2.Explain {
		t.Fatalf("backend/explain leaked: %q/%v", tr2.Backend, tr2.Explain)
	}
	if tr2.Shards() != 0 || tr2.Accesses() != 0 {
		t.Fatal("counters leaked through the pool")
	}
	for s := Stage(0); s < NumStages; s++ {
		if tr2.StageNS(s) != 0 {
			t.Fatalf("stage %v leaked %dns through the pool", s, tr2.StageNS(s))
		}
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"admission", "decode", "plan", "execute", "encode"}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() != want[s] {
			t.Fatalf("Stage(%d) = %q, want %q", s, s.String(), want[s])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatalf("out-of-range stage = %q", Stage(200).String())
	}
}

// TestSlowLog exercises the threshold, the JSON line shape, and the
// rate limit.
func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	sl := NewSlowLog(&buf, 10*time.Millisecond, 5)
	o := NewObserver(0, sl)
	if !o.ShouldTrace() {
		t.Fatal("slow-log observer must trace every request")
	}

	fast := StartTrace("point", "http")
	fast.start = time.Now() // total ≈ 0, under threshold
	o.Finish(fast)
	if buf.Len() != 0 {
		t.Fatalf("fast request logged: %q", buf.String())
	}

	for i := 0; i < 8; i++ {
		slow := StartTrace("window", "http")
		slow.Backend = "Sharded"
		slow.start = time.Now().Add(-50 * time.Millisecond)
		slow.ObserveStage(StageExecute, 40*time.Millisecond)
		slow.AddShards(4)
		o.Finish(slow)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Burst capacity is 5: the remaining 3 must be rate-limited away.
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5 (rate limit)", len(lines))
	}
	if sl.Logged() != 5 || sl.Suppressed() != 3 {
		t.Fatalf("logged/suppressed = %d/%d, want 5/3", sl.Logged(), sl.Suppressed())
	}
	for _, line := range lines {
		var rec SlowLogRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad slow-log line %q: %v", line, err)
		}
		if rec.Op != "window" || rec.Transport != "http" || rec.Backend != "Sharded" {
			t.Fatalf("labels wrong in %q", line)
		}
		if rec.TotalUs < 40_000 {
			t.Fatalf("total %fµs under the induced 50ms", rec.TotalUs)
		}
		if rec.ExecuteUs < 39_000 || rec.ShardsVisited != 4 {
			t.Fatalf("stage/shard fields wrong in %q", line)
		}
	}
}

// TestTraceConcurrent hammers one trace's atomic recorders from many
// goroutines (run under -race in CI).
func TestTraceConcurrent(t *testing.T) {
	tr := StartTrace("window", "stream")
	defer tr.Release()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.AddShards(1)
				tr.AddAccesses(2)
				tr.ObserveStage(StageExecute, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if tr.Shards() != 8000 || tr.Accesses() != 16000 {
		t.Fatalf("shards/accesses = %d/%d, want 8000/16000", tr.Shards(), tr.Accesses())
	}
	if tr.StageNS(StageExecute) != 8000*1000 {
		t.Fatalf("execute stage = %dns, want 8000000", tr.StageNS(StageExecute))
	}
}

// A late trace (created after a stage already ran, e.g. the rsmibin
// explain flag bit is only known post-decode) marks that stage with
// the zero time returned by the earlier nil-receiver MarkSince. The
// stage must stay unrecorded — not get charged now-minus-epoch.
func TestMarkSinceZeroTimeUnrecorded(t *testing.T) {
	var nilTrace *Trace
	t1 := nilTrace.MarkSince(time.Now(), StageAdmission)
	if !t1.IsZero() {
		t.Fatalf("nil MarkSince returned non-zero time %v", t1)
	}
	tr := StartTrace("window", "stream")
	defer tr.Release()
	now := tr.MarkSince(t1, StageDecode)
	if now.IsZero() {
		t.Fatal("MarkSince on a live trace must return now for chaining")
	}
	if ns := tr.StageNS(StageDecode); ns != 0 {
		t.Fatalf("zero-since mark recorded %dns (epoch charge leaked into the span)", ns)
	}
}
