package core

import (
	"container/heap"
	"testing"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/index/indextest"
	"rsmi/internal/store"
	"rsmi/internal/workload"
)

// KNN runs the shared best-first walk of index.Walks over nodes and
// blocks. The reference below is the walk it replaced — one boxed
// container/heap queue of nodes, blocks and every point of every read block,
// popped until k points came out — kept here so the test can demand the
// same answers and the same block reads from the new walk.

type refExactEntry struct {
	dist2 float64
	node  *node
	block int // block id when node == nil and !isPt
	pt    geom.Point
	isPt  bool
}

type refExactQueue []refExactEntry

func (q refExactQueue) Len() int            { return len(q) }
func (q refExactQueue) Less(i, j int) bool  { return q[i].dist2 < q[j].dist2 }
func (q refExactQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refExactQueue) Push(x interface{}) { *q = append(*q, x.(refExactEntry)) }
func (q *refExactQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// refExactKNN is KNN as it ran before the shared walk, seeded as the
// walk is now: when q lies in the MBR of the leaf it descends to, the base
// blocks of q's cell there are read first and their points queued, and
// expanding that leaf skips them. Its block reads are counted by the store
// like the new walk's.
func refExactKNN(t *RSMI, q geom.Point, k int) []geom.Point {
	if k <= 0 || t.Len() == 0 || !q.IsFinite() {
		return nil
	}
	pq := &refExactQueue{}
	heap.Init(pq)
	seed, lo, hi := refSeed(t, q)
	if seed != nil {
		for _, id := range seed.blocks[lo : hi+1] {
			for _, p := range t.store.Read(int(id)).Slots() {
				heap.Push(pq, refExactEntry{dist2: q.Dist2(p), pt: p, isPt: true})
			}
		}
	}
	heap.Push(pq, refExactEntry{dist2: t.root.mbr.MinDist2(q), node: t.root})
	var out []geom.Point
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(refExactEntry)
		switch {
		case e.isPt:
			out = append(out, e.pt)
		case e.node != nil && !e.node.leaf:
			for _, c := range e.node.children {
				if c != nil {
					heap.Push(pq, refExactEntry{dist2: c.mbr.MinDist2(q), node: c})
				}
			}
		case e.node != nil: // leaf: enqueue its blocks by MBR distance
			c := t.scan(e.node, 0, len(e.node.blocks)-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				if e.node != seed || id != c.base || c.pos < lo || c.pos > hi {
					heap.Push(pq, refExactEntry{dist2: t.blockMBR[id].MinDist2(q), block: id})
				}
			}
		default: // block: read it (counted) and enqueue its points
			for _, p := range t.store.Read(e.block).Slots() {
				heap.Push(pq, refExactEntry{dist2: q.Dist2(p), pt: p, isPt: true})
			}
		}
	}
	return out
}

// refSeed returns the leaf whose cell seeds a kNN walk from q and the
// positions [lo, hi] of that cell's base blocks in its list, or a nil leaf when q lies outside the MBR of
// the leaf it descends to.
func refSeed(t *RSMI, q geom.Point) (leaf *node, lo, hi int) {
	if leaf = t.descend(q); leaf == nil || !leaf.mbr.Contains(q) {
		return nil, 0, -1
	}
	lo, hi, _ = t.cellBlocks(leaf, t.cell(leaf, q))
	return leaf, lo, hi
}

// checkExactKNN runs KNN and the reference on one query and fails unless
// both read the same blocks and return the same distances.
func checkExactKNN(t *testing.T, idx *RSMI, q geom.Point, k int) {
	t.Helper()
	before := idx.Accesses()
	got := idx.KNN(q, k)
	mid := idx.Accesses()
	want := refExactKNN(idx, q, k)
	reads, refReads := mid-before, idx.Accesses()-mid
	if len(got) != len(want) {
		t.Fatalf("KNN(%v, %d): %d rows, reference %d", q, k, len(got), len(want))
	}
	for j := range got {
		if q.Dist2(got[j]) != q.Dist2(want[j]) {
			t.Fatalf("KNN(%v, %d) rank %d at %v, reference %v", q, k, j, q.Dist2(got[j]), q.Dist2(want[j]))
		}
	}
	if reads != refReads {
		t.Fatalf("KNN(%v, %d) read %d blocks, reference %d", q, k, reads, refReads)
	}
}

// TestExactKNNMatchesReference pins the best-first walk to the one it
// replaced at BenchmarkKNNByK's scale: per query, the same block reads and
// the same distances. Queries near the data take the seed from their own
// cell, and those outside their leaf's MBR — some near ones, and a few far
// outside the data — do not; both kinds must occur. -short (CI's race pass)
// runs a fifth of the points and a quarter of the queries.
func TestExactKNNMatchesReference(t *testing.T) {
	n, queries := 100_000, 1024
	if testing.Short() {
		n, queries = 20_000, 256
	}
	pts := dataset.Generate(dataset.Skewed, n, 1)
	idx := New(pts, Options{Epochs: 10, Seed: 1})
	qs := append(workload.KNNPoints(pts, queries, 3), geom.Pt(-3, 0.2), geom.Pt(1.5, 1.5), geom.Pt(0.5, 40))
	var seeded int
	for _, q := range qs {
		if leaf, _, _ := refSeed(idx, q); leaf != nil {
			seeded++
		}
		for _, k := range []int{1, 5, 25, 125, 625} {
			checkExactKNN(t, idx, q, k)
		}
	}
	if seeded == 0 || seeded == len(qs) {
		t.Errorf("%d of %d queries took the seed; the reference must see both kinds", seeded, len(qs))
	}
}

// TestExactConformance runs RSMI through the suite every exact baseline
// passes: exact windows and kNN, through inserts and deletes, and kNN on the
// lattice where distance ties are the rule.
func TestExactConformance(t *testing.T) {
	indextest.Run(t, indextest.Config{
		Build:           func(pts []geom.Point) index.Index { return New(pts, testOptions()) },
		ExactWindow:     true,
		ExactKNN:        true,
		SupportsUpdates: true,
	})
}

// FuzzKNN builds a small index from the fuzz bytes — blocks of 2 to 9
// points and leaves of a few blocks, so it has internal nodes — updates it,
// and requires KNN to answer what index.Linear answers, point for
// point, equidistant points in the canonical order, for every k from 1 to
// n + 3, at live points, at points between the grid's and far outside the
// data.
//
// The bytes are three header bytes — B, the leaf size in blocks, and the
// number of records built before the rest are applied as updates — then
// 3-byte records (op, x, y). Coordinates lie on a 32 × 32 grid of the unit
// square, so duplicates and distance ties are common. By op % 4 a record is
// a point (0, 1), op/4 % 16 + 2 copies of one (2; enough of them straddle a
// cut and leave empty cells, which inserts reach through nearestChild), or,
// after the build, the delete of live point (x·256 + y) mod n (3).
func FuzzKNN(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		const maxPoints = 150
		opts := Options{BlockCapacity: 2 + int(data[0]%8), Seed: 1}
		opts.PartitionThreshold = opts.BlockCapacity * (2 + int(data[1]%6))
		built, recs := int(data[2]), data[3:]
		grid := func(x, y byte) geom.Point { return geom.Pt(float64(x%32)/32, float64(y%32)/32) }

		var live []geom.Point
		var idx *RSMI
		for i := 0; ; i++ {
			if i == built || 3*i+3 > len(recs) {
				if idx != nil {
					break
				}
				idx = New(live, opts)
				if 3*i+3 > len(recs) {
					break
				}
			}
			op, p := recs[3*i], grid(recs[3*i+1], recs[3*i+2])
			copies := 1
			switch op % 4 {
			case 2:
				copies = int(op/4%16) + 2
			case 3:
				if idx == nil || len(live) == 0 {
					continue
				}
				j := (int(recs[3*i+1])<<8 | int(recs[3*i+2])) % len(live)
				if !idx.Delete(live[j]) {
					t.Fatalf("Delete(%v) missed a live point", live[j])
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			for c := 0; c < copies && len(live) < maxPoints; c++ {
				if idx != nil {
					idx.Insert(p)
				}
				live = append(live, p)
			}
		}
		if idx.Len() != len(live) {
			t.Fatalf("index holds %d points, %d are live", idx.Len(), len(live))
		}

		oracle := index.NewLinear(live)
		qs := []geom.Point{geom.Pt(-5, 0.5), geom.Pt(0.5, 40), geom.Pt(3, -3)}
		for i := 0; i < len(live); i += 1 + len(live)/3 {
			p := live[i]
			qs = append(qs, p, geom.Pt(p.X+1.0/64, p.Y-1.0/64))
		}
		for _, q := range qs {
			want := oracle.KNN(q, len(live)+3)
			for k := 1; k <= len(live)+3; k++ {
				got := idx.KNN(q, k)
				if len(got) != min(k, len(live)) {
					t.Fatalf("KNN(%v, %d) over %d points: %d rows", q, k, len(live), len(got))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("KNN(%v, %d) over %d points: row %d is %v, index.Linear has %v", q, k, len(live), j, got[j], want[j])
					}
				}
			}
		}
	})
}
