// Command rsmi-inspect builds an RSMI over a data set and prints its
// structural statistics: height, sub-model count, average depth, error
// bounds, block counts, and size — the quantities discussed in §6.2.1 and
// §6.2.2 (Tables 3 and 4).
//
// Usage:
//
//	rsmi-inspect -dist osm -n 100000                 # synthetic data
//	rsmi-inspect -in points.bin -threshold 20000     # from rsmi-datagen
package main

import (
	"flag"
	"fmt"
	"os"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
)

func main() {
	var (
		in     = flag.String("in", "", "binary point file (from rsmi-datagen); overrides -dist")
		dist   = flag.String("dist", "skewed", "distribution: uniform|normal|skewed|tiger|osm")
		n      = flag.Int("n", 100000, "number of points (synthetic data)")
		seed   = flag.Int64("seed", 1, "generation seed")
		block  = flag.Int("block", 100, "block capacity B")
		thresh = flag.Int("threshold", 10000, "partition threshold N")
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
	s := idx.Stats()
	errL, errA := idx.ErrorBounds()

	fmt.Printf("RSMI over %s (n=%d)\n", label, len(pts))
	fmt.Printf("  construction time    %v\n", s.BuildTime)
	fmt.Printf("  height               %d\n", s.Height)
	fmt.Printf("  average depth        %.2f\n", idx.AvgDepth())
	fmt.Printf("  sub-models           %d\n", s.Models)
	fmt.Printf("  data blocks          %d (B=%d)\n", s.Blocks, *block)
	fmt.Printf("  index size           %.2f MB\n", float64(s.SizeBytes)/(1024*1024))
	fmt.Printf("  widest leaf cell     %d blocks (err_l=%d, err_a=%d)\n", 1+errL+errA, errL, errA)

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
