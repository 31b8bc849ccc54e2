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

// ExactKNN runs the shared best-first walk of index.BestFirst over nodes and
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

// refExactKNN is ExactKNN as it ran before the shared walk; its block reads
// are counted by the store like the new walk's.
func refExactKNN(t *RSMI, q geom.Point, k int) []geom.Point {
	if k <= 0 || t.n == 0 || !q.IsFinite() {
		return nil
	}
	pq := &refExactQueue{}
	heap.Init(pq)
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
			c := t.scan(e.node.firstBlock, e.node.firstBlock+e.node.numBlocks-1)
			for id := c.next(); id != store.NilBlock; id = c.next() {
				heap.Push(pq, refExactEntry{dist2: t.blockMBR[id].MinDist2(q), block: id})
			}
		default: // block: read it (counted) and enqueue its points
			for _, p := range t.store.Read(e.block).Slots() {
				heap.Push(pq, refExactEntry{dist2: q.Dist2(p), pt: p, isPt: true})
			}
		}
	}
	return out
}

// checkExactKNN runs ExactKNN and the reference on one query and fails
// unless both read the same blocks and return the same distances.
func checkExactKNN(t *testing.T, idx *RSMI, q geom.Point, k int) {
	t.Helper()
	before := idx.Accesses()
	got := idx.ExactKNN(q, k)
	mid := idx.Accesses()
	want := refExactKNN(idx, q, k)
	reads, refReads := mid-before, idx.Accesses()-mid
	if len(got) != len(want) {
		t.Fatalf("ExactKNN(%v, %d): %d rows, reference %d", q, k, len(got), len(want))
	}
	for j := range got {
		if q.Dist2(got[j]) != q.Dist2(want[j]) {
			t.Fatalf("ExactKNN(%v, %d) rank %d at %v, reference %v", q, k, j, q.Dist2(got[j]), q.Dist2(want[j]))
		}
	}
	if reads != refReads {
		t.Fatalf("ExactKNN(%v, %d) read %d blocks, reference %d", q, k, reads, refReads)
	}
}

// TestExactKNNMatchesReference pins the best-first walk to the one it
// replaced at BenchmarkKNNByK's scale: per query, the same block reads and
// the same distances. -short (CI's race pass) runs a fifth of the points
// and a quarter of the queries.
func TestExactKNNMatchesReference(t *testing.T) {
	n, queries := 100_000, 1024
	if testing.Short() {
		n, queries = 20_000, 256
	}
	pts := dataset.Generate(dataset.Skewed, n, 1)
	idx := New(pts, Options{Epochs: 10, Seed: 1})
	for _, q := range workload.KNNPoints(pts, queries, 3) {
		for _, k := range []int{1, 5, 25, 125, 625} {
			checkExactKNN(t, idx, q, k)
		}
	}
}

// TestExactConformance runs RSMIa through the suite every exact baseline
// passes: exact windows and kNN, through inserts and deletes, and kNN on the
// lattice where distance ties are the rule.
func TestExactConformance(t *testing.T) {
	indextest.Run(t, indextest.Config{
		Build:           func(pts []geom.Point) index.Index { return New(pts, testOptions()).AsExact() },
		ExactWindow:     true,
		ExactKNN:        true,
		SupportsUpdates: true,
	})
}
