// Command rsmi-inspect builds an RSMI over a data set and prints its
// structural statistics: height, sub-model count, average depth, error
// bounds, block counts, and size — the quantities discussed in §6.2.1 and
// §6.2.2 (Tables 3 and 4) — and, after -grow inserts, the leaf repacks they
// set off and the points left in overflow chains per leaf (§5).
//
// Usage:
//
//	rsmi-inspect -dist osm -n 100000                 # synthetic data
//	rsmi-inspect -in points.bin -threshold 20000     # from rsmi-datagen
//	rsmi-inspect -dist osm -grow 0.5                 # then insert n/2 points
package main

import (
	"flag"
	"fmt"
	"os"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/workload"
)

func main() {
	var (
		in     = flag.String("in", "", "binary point file (from rsmi-datagen); overrides -dist")
		dist   = flag.String("dist", "skewed", "distribution: uniform|normal|skewed|tiger|osm")
		n      = flag.Int("n", 100000, "number of points (synthetic data)")
		seed   = flag.Int64("seed", 1, "generation seed")
		block  = flag.Int("block", 100, "block capacity B")
		thresh = flag.Int("threshold", 10000, "partition threshold N")
		grow   = flag.Float64("grow", 0, "after the build, insert this fraction of n jittered copies of data points")
	)
	flag.Parse()

	var pts []geom.Point
	var err error
	label := *dist
	if *in != "" {
		pts, err = dataset.LoadFile(*in)
		label = *in
		if err != nil {
			fmt.Fprintf(os.Stderr, "rsmi-inspect: %v\n", err)
			os.Exit(1)
		}
	} else {
		kind, perr := dataset.Parse(*dist)
		if perr != nil {
			fmt.Fprintf(os.Stderr, "rsmi-inspect: %v\n", perr)
			os.Exit(2)
		}
		pts = dataset.Generate(kind, *n, *seed)
	}

	idx := rsmi.New(pts, rsmi.Options{
		BlockCapacity:      *block,
		PartitionThreshold: *thresh,
	})
	if *grow < 0 {
		fmt.Fprintf(os.Stderr, "rsmi-inspect: -grow %v is negative\n", *grow)
		os.Exit(2)
	}
	ins := workload.InsertPoints(pts, int(*grow*float64(len(pts))), *seed+1)
	for _, p := range ins {
		idx.Insert(p)
	}
	pts = append(pts, ins...)
	s := idx.Stats()
	errL, errA := idx.ErrorBounds()

	fmt.Printf("RSMI over %s (n=%d, %d of them inserted)\n", label, len(pts), len(ins))
	fmt.Printf("  construction time    %v\n", s.BuildTime)
	fmt.Printf("  height               %d\n", s.Height)
	fmt.Printf("  average depth        %.2f\n", idx.AvgDepth())
	fmt.Printf("  sub-models           %d\n", s.Models)
	fmt.Printf("  data blocks          %d (B=%d)\n", s.Blocks, *block)
	fmt.Printf("  index size           %.2f MB\n", float64(s.SizeBytes)/(1024*1024))
	fmt.Printf("  widest leaf cell     %d blocks (err_l=%d, err_a=%d)\n", 1+errL+errA, errL, errA)
	largest, mean := idx.LeafOverflow()
	fmt.Printf("  leaf repacks         %d\n", idx.Repacks())
	fmt.Printf("  overflow points      %d in the fullest leaf, %.1f per leaf\n", largest, mean)

	// A quick self-check: every 1000th point must be findable.
	miss := 0
	for i := 0; i < len(pts); i += 1000 {
		if !idx.PointQuery(pts[i]) {
			miss++
		}
	}
	if miss > 0 {
		fmt.Printf("  SELF-CHECK FAILED    %d sampled points unfindable\n", miss)
		os.Exit(1)
	}
	fmt.Printf("  self-check           ok (sampled point queries exact)\n")
}
