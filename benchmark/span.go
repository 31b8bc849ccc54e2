package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"rsmi"
	"rsmi/internal/geom"
	"rsmi/internal/server"
)

// span is one timed interval recorded by the benchmark: its name, its
// start and end in nanoseconds since the recorder was made, the span it
// happened inside (0 = none) and the round it belongs to (-1 outside the
// rounds).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory, in a slice sized up front so that opening
// one is an atomic increment and two stores. Spans that do not fit are
// counted, not kept.
type recorder struct {
	t0      time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its id, 0 if the recorder is full.
func (r *recorder) begin(name string, parent, round int32) int32 {
	i := r.next.Add(1)
	if int(i) > len(r.spans) {
		r.dropped.Add(1)
		return 0
	}
	r.spans[i-1] = span{ID: i, Parent: parent, Round: round, Name: name, Start: int64(time.Since(r.t0))}
	return i
}

func (r *recorder) end(id int32) {
	if id > 0 {
		r.spans[id-1].End = int64(time.Since(r.t0))
	}
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, parent, round int32, start, end int64) {
	if id := r.begin(name, parent, round); id > 0 {
		r.spans[id-1].Start, r.spans[id-1].End = start, end
	}
}

func (r *recorder) recorded() []span {
	return r.spans[:min(int(r.next.Load()), len(r.spans))]
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (concurrent requests under one round) and may stick out of the parent;
// the covered part is the union of their intervals clipped to the parent's.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta["dropped_spans"] = r.dropped.Load()
	meta["spans"] = r.recorded()
	if err := json.NewEncoder(f).Encode(meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer opens the benchmark's spans: one per phase and per round, one per
// request around the target, one per call around the engine. A nil tracer
// records nothing and wraps nothing, so an untraced run executes none of
// this file.
type tracer struct {
	rec *recorder
	// round is the current round's span and number; phase spans and the
	// requests of the checked pass and the warm-up have round -1.
	roundSpan, roundNo atomic.Int32
	// inFlight is the span of the request the single in-process driver has
	// in flight: the parent of the engine call it makes. Over a transport
	// several requests are in flight and the coalescer may merge them into
	// one engine call, so there the engine span's parent is the round.
	inFlight atomic.Int32
}

func newTracer(capacity int) *tracer {
	t := &tracer{rec: newRecorder(capacity)}
	t.roundNo.Store(-1)
	return t
}

func (t *tracer) phase(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	id := t.rec.begin(name, 0, -1)
	t.roundSpan.Store(id)
	return func() {
		t.rec.end(id)
		t.roundSpan.Store(0)
	}
}

func (t *tracer) round(no int) (end func()) {
	if t == nil {
		return func() {}
	}
	phase := t.roundSpan.Load()
	id := t.rec.begin("round", phase, int32(no))
	t.roundSpan.Store(id)
	t.roundNo.Store(int32(no))
	return func() {
		t.rec.end(id)
		t.roundSpan.Store(phase)
		t.roundNo.Store(-1)
	}
}

// timed reports whether request and engine spans are being kept: only
// inside a round. The checked pass and the warm-up would fill the recorder
// with spans nobody reads; their phases still have a span each.
func (t *tracer) timed() bool { return t.roundNo.Load() >= 0 }

// wrapTarget gives the in-process target a span per request.
func (t *tracer) wrapTarget(tg engineTarget) target {
	if t == nil {
		return tg
	}
	return &tracedTarget{t: t, inner: tg}
}

func (t *tracer) wrapEngine(e rsmi.Engine) rsmi.Engine {
	if t == nil {
		return e
	}
	return &tracedEngine{t: t, Engine: e}
}

// tracedTarget opens a span per in-process request, named after the class,
// and makes it the parent of the engine call inside.
type tracedTarget struct {
	t     *tracer
	inner engineTarget
}

func (tt *tracedTarget) do(ctx context.Context, buf *[]geom.Point, ops []op, out []answer) (int64, error) {
	if !tt.t.timed() {
		return tt.inner.do(ctx, buf, ops, out)
	}
	id := tt.t.rec.begin("request."+classNames[ops[0].kind.class()], tt.t.roundSpan.Load(), tt.t.roundNo.Load())
	tt.t.inFlight.Store(id)
	ns, err := tt.inner.do(ctx, buf, ops, out)
	tt.t.inFlight.Store(0)
	tt.t.rec.end(id)
	return ns, err
}

// request opens the span of a request sent over a transport. When the reply
// carries the server's EXPLAIN trace in *tj, end records the server's stage
// spans as children. The server reports durations, not clock readings: the
// stages are laid end to end from the request's start, in the server's
// order, and what remains of the request's span at its end is what the
// client waited beyond them — transport, client codec, scheduling.
func (t *tracer) request(cl class, tj **server.TraceJSON) (end func()) {
	if t == nil || !t.timed() {
		return func() {}
	}
	round := t.roundNo.Load()
	id := t.rec.begin("request."+classNames[cl], t.roundSpan.Load(), round)
	return func() {
		t.rec.end(id)
		if id == 0 || *tj == nil {
			return
		}
		at := t.rec.spans[id-1].Start
		for _, st := range (*tj).Stages {
			ns := int64(st.Us * 1e3)
			t.rec.add("server."+st.Stage, id, round, at, at+ns)
			at += ns
		}
	}
}

// tracedEngine opens a span per engine call. It embeds the interface, so it
// forwards what it does not time — and hides the engine's optional
// interfaces (NumShards, write hooks) from the server, which is one reason
// the end-to-end metrics come from a run without it.
type tracedEngine struct {
	t *tracer
	rsmi.Engine
}

func (te *tracedEngine) span(name string) (end func()) {
	if !te.t.timed() {
		return func() {}
	}
	parent := te.t.inFlight.Load()
	if parent == 0 {
		parent = te.t.roundSpan.Load()
	}
	id := te.t.rec.begin(name, parent, te.t.roundNo.Load())
	return func() { te.t.rec.end(id) }
}

func (te *tracedEngine) PointQueryContext(ctx context.Context, q rsmi.Point) (bool, error) {
	defer te.span("engine.point")()
	return te.Engine.PointQueryContext(ctx, q)
}

func (te *tracedEngine) WindowQueryContext(ctx context.Context, q rsmi.Rect) ([]rsmi.Point, error) {
	defer te.span("engine.window")()
	return te.Engine.WindowQueryContext(ctx, q)
}

func (te *tracedEngine) WindowQueryAppend(ctx context.Context, dst []rsmi.Point, q rsmi.Rect) ([]rsmi.Point, error) {
	defer te.span("engine.window")()
	return te.Engine.WindowQueryAppend(ctx, dst, q)
}

func (te *tracedEngine) KNNContext(ctx context.Context, q rsmi.Point, k int) ([]rsmi.Point, error) {
	defer te.span("engine.knn")()
	return te.Engine.KNNContext(ctx, q, k)
}

func (te *tracedEngine) BatchPointQueryContext(ctx context.Context, qs []rsmi.Point) ([]bool, error) {
	defer te.span("engine.batch_point")()
	return te.Engine.BatchPointQueryContext(ctx, qs)
}

func (te *tracedEngine) BatchWindowQueryContext(ctx context.Context, qs []rsmi.Rect) ([][]rsmi.Point, error) {
	defer te.span("engine.batch_window")()
	return te.Engine.BatchWindowQueryContext(ctx, qs)
}

func (te *tracedEngine) BatchKNNContext(ctx context.Context, qs []rsmi.KNNQuery) ([][]rsmi.Point, error) {
	defer te.span("engine.batch_knn")()
	return te.Engine.BatchKNNContext(ctx, qs)
}

func (te *tracedEngine) InsertContext(ctx context.Context, p rsmi.Point) error {
	defer te.span("engine.insert")()
	return te.Engine.InsertContext(ctx, p)
}

func (te *tracedEngine) DeleteContext(ctx context.Context, p rsmi.Point) (bool, error) {
	defer te.span("engine.delete")()
	return te.Engine.DeleteContext(ctx, p)
}
