// Quickstart: build an RSMI over synthetic points and run all three query
// types of the paper — point (Algorithm 1), window (Algorithm 2), and kNN
// (Algorithm 3) — plus the exact RSMIa variant.
package main

import (
	"context"
	"fmt"

	"rsmi"
	"rsmi/internal/dataset"
)

func main() {
	// 50,000 points with the paper's Skewed distribution (y ← y⁴).
	pts := dataset.Generate(dataset.Skewed, 50000, 1)

	// Build with the paper's parameters (the zero value Options{} selects
	// the same).
	idx := rsmi.New(pts, rsmi.Options{
		PartitionThreshold: 10000, // N
		BlockCapacity:      100,   // B
	})
	s := idx.Stats()
	fmt.Printf("built RSMI: n=%d height=%d models=%d size=%.1f MB in %v\n",
		idx.Len(), s.Height, s.Models, float64(s.SizeBytes)/(1<<20), s.BuildTime)

	// The ctx-first v2 API: every query takes a context and returns an
	// error (non-nil only on cancellation, so a Background context makes
	// the errors ignorable here).
	ctx := context.Background()

	// Point query: exact, no false negatives.
	q := pts[4242]
	found, _ := idx.PointQueryContext(ctx, q)
	fmt.Printf("point query %v found=%v\n", q, found)

	// Window query: Algorithm 2 over the leaves' exact cells.
	w := rsmi.RectAround(rsmi.Pt(0.5, 0.1), 0.05, 0.05)
	idx.ResetAccesses()
	hits, _ := idx.WindowQueryContext(ctx, w)
	fmt.Printf("window %v: %d points, %d block accesses\n", w, len(hits), idx.Accesses())

	// Exact window query via the RSMIa variant (MBR traversal).
	exact, _ := idx.ExactWindowContext(ctx, w)
	fmt.Printf("exact window: %d points (Algorithm 2's recall %.3f)\n",
		len(exact), float64(len(hits))/float64(max(1, len(exact))))

	// kNN: the 10 nearest neighbours of a location.
	me := rsmi.Pt(0.5, 0.1)
	nn, _ := idx.KNNContext(ctx, me, 10)
	for i, p := range nn {
		if i < 3 {
			fmt.Printf("  #%d nearest: %v (dist %.5f)\n", i+1, p, me.Dist(p))
		}
	}

	// Dynamic updates.
	newPOI := rsmi.Pt(0.500001, 0.100001)
	_ = idx.InsertContext(ctx, newPOI)
	found, _ = idx.PointQueryContext(ctx, newPOI)
	fmt.Printf("after insert: found=%v, n=%d\n", found, idx.Len())
	_, _ = idx.DeleteContext(ctx, newPOI)
	found, _ = idx.PointQueryContext(ctx, newPOI)
	fmt.Printf("after delete: found=%v, n=%d\n", found, idx.Len())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
