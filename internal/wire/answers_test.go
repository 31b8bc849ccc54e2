package wire

import (
	"encoding/json"
	"math/rand"
	"testing"

	"rsmi/internal/geom"
)

// testTrace is an EXPLAIN trace with every field set, HTML-escaped
// characters included.
var testTrace = &TraceJSON{
	ID: 7, Backend: "RSMI<a&b>", ShardsVisited: 2, BlockAccesses: 19,
	Stages: []TraceStageJSON{{Stage: "decode", Us: 1.5}, {Stage: "execute", Us: 1e-7}},
	Plan:   &PlanJSON{Backend: "grid", EstCostUS: 3, ActualCostUS: 4.25, EstRows: 12},
}

// batchResponse is the /v1/batch answer document as encoding/json writes
// it: the oracle of the appending encoder.
type batchResponse struct {
	Results []BatchResult `json:"results"`
	Trace   *TraceJSON    `json:"trace,omitempty"`
}

// toBatchResults converts executed answers to the JSON wire shape.
func toBatchResults(answers []Result) []BatchResult {
	out := make([]BatchResult, len(answers))
	for i, a := range answers {
		out[i] = a.BatchResult()
	}
	return out
}

// windowAnswers is a batch answer of 32 windows of 100 points each.
func windowAnswers() []Result {
	rng := rand.New(rand.NewSource(3))
	answers := make([]Result, 32)
	for i := range answers {
		pts := make([]geom.Point, 100)
		for j := range pts {
			pts[j] = geom.Pt(rng.Float64(), rng.Float64())
		}
		answers[i] = Result{Op: OpWindow, Pts: pts}
	}
	return answers
}

// TestBatchBinaryEncodeAllocs pins the zero-copy claim: encoding a batch
// response of any size into a warm pooled buffer allocates O(1) buffers
// per batch — nothing per point and nothing per result.
func TestBatchBinaryEncodeAllocs(t *testing.T) {
	answers := windowAnswers()
	// Warm the buffer to steady-state capacity, as the response pool does.
	buf := AppendAnswers(nil, answers, false, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendAnswers(buf[:0], answers, false, nil)
	})
	if allocs > 0 {
		t.Fatalf("batch encode allocates %.1f times per 32×100-point batch, want 0", allocs)
	}
}

// TestBatchJSONEncodeAllocs mirrors TestBatchBinaryEncodeAllocs for the
// streaming JSON path: encoding a batch response of any size into a warm
// pooled buffer allocates nothing per point and nothing per result.
func TestBatchJSONEncodeAllocs(t *testing.T) {
	answers := windowAnswers()
	batch := &table[BatchRow]
	// Warm the buffer to steady-state capacity, as the response pool does.
	buf := AppendAnswersJSON(nil, batch, answers, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendAnswersJSON(buf[:0], batch, answers, nil)
	})
	if allocs > 0 {
		t.Fatalf("JSON batch encode allocates %.1f times per 32×100-point batch, want 0", allocs)
	}
	// An EXPLAIN answer leaves through the same encoder: the bytes are
	// encoding/json's, and the trace costs what marshalling a trace
	// costs, not one []PointJSON per result.
	want, err := json.Marshal(batchResponse{Results: toBatchResults(answers), Trace: testTrace})
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendAnswersJSON(buf[:0], batch, answers, testTrace); string(got) != string(want)+"\n" {
		t.Fatal("traced JSON batch encode differs from json.Marshal(batchResponse{…, Trace: tj})")
	}
	traced := testing.AllocsPerRun(100, func() {
		buf = AppendAnswersJSON(buf[:0], batch, answers, testTrace)
	})
	if traced > 8 {
		t.Fatalf("traced JSON batch encode allocates %.1f times per 32×100-point batch, want a trace's worth (≤ 8)", traced)
	}
}

// TestPointsJSONEncodeAllocs mirrors TestBatchJSONEncodeAllocs for the
// per-op path: encoding a window/kNN response of any size into a warm
// pooled buffer allocates nothing.
func TestPointsJSONEncodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	window, answer := &table[Row(OpWindow)], []Result{{Op: OpWindow, Pts: pts}}
	// Warm the buffer to steady-state capacity, as the response pool does.
	buf := AppendAnswersJSON(nil, window, answer, nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendAnswersJSON(buf[:0], window, answer, nil)
	})
	if allocs > 0 {
		t.Fatalf("per-op JSON encode allocates %.1f times per 500-point response, want 0", allocs)
	}
}

// BenchmarkBatchEncode compares the JSON and binary encoders over the
// same 32×100-point batch answer (the EXPERIMENTS.md "Serving" shape).
func BenchmarkBatchEncode(b *testing.B) {
	answers := windowAnswers()
	batch := &table[BatchRow]
	b.Run("binary", func(b *testing.B) {
		buf := AppendAnswers(nil, answers, false, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = AppendAnswers(buf[:0], answers, false, nil)
		}
	})
	b.Run("json-stream", func(b *testing.B) {
		buf := AppendAnswersJSON(nil, batch, answers, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = AppendAnswersJSON(buf[:0], batch, answers, nil)
		}
	})
	b.Run("json-marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(batchResponse{Results: toBatchResults(answers)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
