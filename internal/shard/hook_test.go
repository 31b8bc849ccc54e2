package shard

import (
	"testing"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
)

// TestWriteHook checks the write-hook contract the replication oplog
// depends on: every applied insert and successful delete notifies with
// the right kind and point, a missed delete stays silent, a rebuild
// notifies exactly once with no point, and a removed hook is silent.
func TestWriteHook(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 500, 11)
	s := New(pts, Options{
		Shards: 3,
		Index: core.Options{
			BlockCapacity:      50,
			PartitionThreshold: 200,
			Epochs:             5,
			LearningRate:       0.1,
			Seed:               1,
		},
	})

	var ops []WriteOp
	remove := s.AddWriteHook(func(op WriteOp) { ops = append(ops, op) })

	ins := geom.Pt(0.123, 0.456)
	mustInsert(t, s, ins)
	if deleted := must(s.DeleteContext(bg, ins)); !deleted {
		t.Fatal("delete of just-inserted point failed")
	}
	if deleted := must(s.DeleteContext(bg, geom.Pt(-5, -5))); deleted {
		t.Fatal("delete of absent point succeeded")
	}
	if err := s.RebuildContext(bg); err != nil {
		t.Fatalf("rebuild: %v", err)
	}

	want := []WriteOp{
		{Kind: WriteInsert, P: ins},
		{Kind: WriteDelete, P: ins},
		{Kind: WriteRebuild},
	}
	if len(ops) != len(want) {
		t.Fatalf("hook saw %d ops, want %d: %+v", len(ops), len(want), ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}

	// Uninstall: further writes are silent.
	remove()
	mustInsert(t, s, geom.Pt(0.9, 0.9))
	if len(ops) != len(want) {
		t.Fatalf("uninstalled hook still fired: %+v", ops[len(want):])
	}
}

// TestAddWriteHookFanIn checks the multi-consumer contract the
// standing-query matcher rides on: AddWriteHook registers one more
// observer beside the existing ones, every applied mutation notifies
// all of them in registration order, the returned remove function
// detaches exactly its own hook — whenever it runs, however often.
func TestAddWriteHookFanIn(t *testing.T) {
	pts := dataset.Generate(dataset.Uniform, 500, 11)
	s := New(pts, Options{
		Shards: 3,
		Index: core.Options{
			BlockCapacity:      50,
			PartitionThreshold: 200,
			Epochs:             5,
			LearningRate:       0.1,
			Seed:               1,
		},
	})

	var a, b []WriteOp
	removeA := s.AddWriteHook(func(op WriteOp) { a = append(a, op) })
	removeB := s.AddWriteHook(func(op WriteOp) { b = append(b, op) })

	p1 := geom.Pt(0.111, 0.222)
	mustInsert(t, s, p1)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] || a[0] != (WriteOp{Kind: WriteInsert, P: p1}) {
		t.Fatalf("fan-in after insert: a=%+v b=%+v", a, b)
	}

	// Removing A leaves B attached; removing twice is a no-op.
	removeA()
	removeA()
	p2 := geom.Pt(0.333, 0.444)
	mustInsert(t, s, p2)
	if len(a) != 1 {
		t.Fatalf("removed hook still fired: %+v", a)
	}
	if len(b) != 2 || b[1] != (WriteOp{Kind: WriteInsert, P: p2}) {
		t.Fatalf("surviving hook missed the write: %+v", b)
	}

	// A hook added after a removal joins the survivors; removing B then
	// leaves only the new one.
	var c []WriteOp
	s.AddWriteHook(func(op WriteOp) { c = append(c, op) })
	removeB()
	p3 := geom.Pt(0.555, 0.666)
	mustInsert(t, s, p3)
	if len(b) != 2 {
		t.Fatalf("removed hook B still fired: %+v", b)
	}
	if len(c) != 1 || c[0] != (WriteOp{Kind: WriteInsert, P: p3}) {
		t.Fatalf("hook added after a removal: %+v", c)
	}
	// Removing already-removed hooks must not disturb the current set.
	removeA()
	removeB()
	mustInsert(t, s, geom.Pt(0.777, 0.888))
	if len(c) != 2 {
		t.Fatalf("stale remove broke the remaining hook: %+v", c)
	}
}

// TestWriteHookKindValues pins the wire values replication serialises.
func TestWriteHookKindValues(t *testing.T) {
	if WriteInsert != 1 || WriteDelete != 2 || WriteRebuild != 3 {
		t.Fatalf("WriteKind values changed: insert=%d delete=%d rebuild=%d",
			WriteInsert, WriteDelete, WriteRebuild)
	}
}
