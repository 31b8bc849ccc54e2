package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Childless: all of it is self time.
		{ID: 1, Start: 0, End: 100},
		// Nested: the child's interval comes off the parent, the
		// grandchild's off the child only.
		{ID: 2, Start: 0, End: 100},
		{ID: 3, Parent: 2, Start: 10, End: 60},
		{ID: 4, Parent: 3, Start: 20, End: 30},
		// Overlapping children (two requests in flight under one round)
		// cover their union once: [10,50) and [30,80) cover 70.
		{ID: 5, Start: 0, End: 100},
		{ID: 6, Parent: 5, Start: 10, End: 50},
		{ID: 7, Parent: 5, Start: 30, End: 80},
		// A child sticking out of its parent is clipped to it, and one
		// wholly inside another child adds nothing.
		{ID: 8, Start: 50, End: 100},
		{ID: 9, Parent: 8, Start: 40, End: 70},
		{ID: 10, Parent: 8, Start: 55, End: 60},
		{ID: 11, Parent: 8, Start: 90, End: 130},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 100, 2: 50, 3: 40, 4: 10, 5: 30, 6: 40, 7: 50, 8: 20, 9: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderDropsWhenFull(t *testing.T) {
	r := newRecorder(2)
	a, b, c := r.begin("a", 0, -1), r.begin("b", 0, -1), r.begin("c", 0, -1)
	r.end(a)
	r.end(b)
	r.end(c)
	if a != 1 || b != 2 || c != 0 {
		t.Fatalf("ids = %d %d %d, want 1 2 0", a, b, c)
	}
	if got := len(r.recorded()); got != 2 || r.dropped.Load() != 1 {
		t.Errorf("%d recorded, %d dropped; want 2 and 1", got, r.dropped.Load())
	}
}

// A nil tracer is the untraced run: it must hand back what it was given.
func TestNilTracerWrapsNothing(t *testing.T) {
	var tr *tracer
	tg := engineTarget{}
	if got := tr.wrapTarget(tg); got != target(tg) {
		t.Errorf("nil tracer wrapped the target: %T", got)
	}
	if got := tr.wrapEngine(nil); got != nil {
		t.Errorf("nil tracer wrapped the engine: %T", got)
	}
	tr.phase("p")()
	tr.round(0)()
	tr.request(cPoint, nil)()
}
