package main

import (
	"reflect"
	"testing"

	"rsmi/internal/dataset"
)

func TestTapesFollowTheSeed(t *testing.T) {
	sp, _ := specByName("embed-write")
	sp = sp.sized(true)
	a, b, c := buildTapes(sp.kind, sp.sz, 7), buildTapes(sp.kind, sp.sz, 7), buildTapes(sp.kind, sp.sz, 8)
	if !reflect.DeepEqual(a.hashes(), b.hashes()) {
		t.Errorf("seed 7 gave %v, then %v", a.hashes(), b.hashes())
	}
	for name, h := range a.hashes() {
		if c.hashes()[name] == h {
			t.Errorf("tape %q is the same for seeds 7 and 8", name)
		}
	}
	if !reflect.DeepEqual(a.data, c.data) {
		t.Error("the data set follows --seed; it is meant to be fixed (see dataSeed)")
	}
}

func TestTapeShape(t *testing.T) {
	sp, _ := specByName("embed-write")
	sp = sp.sized(true)
	tp := buildTapes(dataset.OSMLike, sp.sz, 3)
	live := setOf(tp.data)
	present := 0
	for _, o := range tp.class[cPoint] {
		if _, in := live[o.p]; in != o.want {
			t.Fatalf("%v: the tape says present=%v", o, o.want)
		}
		if o.want {
			present++
		}
	}
	if want := len(tp.class[cPoint]) * (100 - absentPct) / 100; present != want {
		t.Errorf("%d of %d probes are present, want %d", present, len(tp.class[cPoint]), want)
	}
	for i := 0; i < len(tp.class[cWrite]); i += 2 {
		ins, del := tp.class[cWrite][i], tp.class[cWrite][i+1]
		if _, in := live[ins.p]; in || ins.kind != opInsert || del.kind != opDelete || del.p != ins.p {
			t.Fatalf("pair %d: %v then %v", i/2, ins, del)
		}
	}
	// The mixed tape keeps the mix in every 100 operations and never
	// deletes what is not there or probes with a wrong expectation.
	count := map[opKind]int{}
	for i, o := range tp.mixed {
		count[o.kind]++
		switch o.kind {
		case opInsert:
			if _, in := live[o.p]; in {
				t.Fatalf("op %d inserts a live point", i)
			}
			live[o.p] = struct{}{}
		case opDelete:
			if _, in := live[o.p]; !in {
				t.Fatalf("op %d deletes a point that is not live", i)
			}
			delete(live, o.p)
		case opPoint:
			if _, in := live[o.p]; in != o.want {
				t.Fatalf("op %d: the tape says present=%v", i, o.want)
			}
		}
		if (i+1)%100 == 0 {
			if count[opInsert] != 50 || count[opDelete] != 15 || count[opPoint] != 22 || count[opWindow] != 9 || count[opKNN] != 4 {
				t.Fatalf("mix of operations %d..%d: %v", i-99, i, count)
			}
			count = map[opKind]int{}
		}
	}
}

// The write tape is regrouped for batched transports: a request of inserts,
// then the request that deletes the same points.
func TestScheduleRegroupsPairs(t *testing.T) {
	sp, _ := specByName("serve-json-batch")
	sp = sp.sized(true)
	tp := buildTapes(sp.kind, sp.sz, 1)
	pl := newSchedule(cWrite, tp.class[cWrite], 4)
	if pl.unit != 2 || len(pl.ops) != len(tp.class[cWrite]) {
		t.Fatalf("unit %d, %d ops", pl.unit, len(pl.ops))
	}
	for r := 0; r+1 < pl.requests(); r += 2 {
		ilo, ihi := pl.request(r)
		dlo, _ := pl.request(r + 1)
		for i := ilo; i < ihi; i++ {
			ins, del := pl.ops[i], pl.ops[dlo+i-ilo]
			if ins.kind != opInsert || del.kind != opDelete || ins.p != del.p {
				t.Fatalf("request %d op %d: %v is undone by %v", r, i-ilo, ins, del)
			}
		}
	}
}
