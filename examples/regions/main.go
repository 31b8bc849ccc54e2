// Regions: indexing spatial objects with non-zero extent (§7 future work).
//
// The paper's TIGER data set is really a set of *rectangles* (geographic
// feature bounding boxes); the evaluation indexes their centres. This
// example indexes the rectangles themselves with the query-expansion
// technique the paper points to [44, 48]: building footprints are stored in
// a learned RectIndex, and we answer "which parcels does this point fall
// in?" (stab), "which buildings does this zone touch?" (window), and "which
// buildings are nearest to the incident?" (kNN over MINDIST).
package main

import (
	"fmt"
	"math/rand"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
)

func main() {
	// Synthesize building footprints: centres follow the Tiger-like
	// corridor distribution, extents are small rectangles.
	const nBuildings = 50000
	centres := dataset.Generate(dataset.TigerLike, nBuildings, 3)
	rng := rand.New(rand.NewSource(4))
	footprints := make([]rsmi.Rect, nBuildings)
	for i, c := range centres {
		w := 0.0005 + 0.002*rng.Float64()
		h := 0.0005 + 0.002*rng.Float64()
		footprints[i] = rsmi.RectAround(c, w, h)
	}

	start := time.Now()
	idx := rsmi.NewRectIndex(footprints, rsmi.Options{
		Epochs: 30, LearningRate: 0.1, Seed: 5,
	})
	fmt.Printf("indexed %d building footprints in %v\n", idx.Len(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("window expansion overhead for a 0.01 x 0.01 zone: %.2fx\n",
		idx.ExpansionOverhead(0.01, 0.01))

	// Stab query: which buildings contain this point?
	incident := centres[777]
	hits := idx.StabQuery(incident)
	fmt.Printf("\nstab %v: inside %d footprint(s)\n", incident, len(hits))

	// Window query: buildings touching a planning zone.
	zone := rsmi.RectAround(rsmi.Pt(0.5, 0.5), 0.02, 0.02)
	fmt.Printf("zone %v: touches %d footprint(s)\n", zone, len(idx.ExactWindow(zone)))

	// kNN by MINDIST: the five buildings nearest an incident location.
	fmt.Printf("\n5 buildings nearest to %v:\n", incident)
	for i, r := range idx.ExactKNN(incident, 5) {
		fmt.Printf("  #%d  %v (MINDIST %.5f)\n", i+1, r, r.MinDist(incident))
	}

	// Dynamic: demolish and rebuild.
	idx.Delete(footprints[0])
	idx.Insert(rsmi.RectAround(rsmi.Pt(0.123, 0.456), 0.001, 0.001))
	fmt.Printf("\nafter demolition + construction: %d footprints indexed\n", idx.Len())
}
