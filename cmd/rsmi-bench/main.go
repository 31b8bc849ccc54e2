// Command rsmi-bench reproduces the tables and figures of "Effectively
// Learning Spatial Indices" (PVLDB 2020), §6, and nothing else. Each
// experiment prints the same rows/series the paper reports. (Performance of
// this implementation is measured by the benchmark/ module; a running server
// is driven by rsmi-loadgen.)
//
// Usage:
//
//	rsmi-bench -list                      # show all experiment ids
//	rsmi-bench -exp fig10                 # one experiment at default scale
//	rsmi-bench -exp all -n 100000         # the full evaluation, larger data
//	rsmi-bench -exp table3 -epochs 500    # paper-fidelity training
//
// The harness defaults to laptop scale (n=20000, 30 epochs); see README.md
// ("Scale") for the scaling rationale and EXPERIMENTS.md for measured
// results.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rsmi/internal/bench"
	"rsmi/internal/dataset"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		n       = flag.Int("n", 0, "data set cardinality (default 20000)")
		queries = flag.Int("queries", 0, "queries per experiment (default 200; paper: 1000)")
		epochs  = flag.Int("epochs", 0, "training epochs (default 30; paper: 500)")
		lr      = flag.Float64("lr", 0, "learning rate (default 0.1; paper: 0.01)")
		block   = flag.Int("block", 0, "block capacity B (default 100)")
		thresh  = flag.Int("threshold", 0, "RSMI partition threshold N (default 10000)")
		seed    = flag.Int64("seed", 0, "random seed (default 1)")
		dist    = flag.String("dist", "skewed", "distribution of the experiments that do not sweep it: uniform|normal|skewed|tiger|osm")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "rsmi-bench: -exp required (or -list); e.g. -exp fig6")
		os.Exit(2)
	}

	kind, err := dataset.Parse(*dist)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rsmi-bench: %v\n", err)
		os.Exit(2)
	}
	cfg := bench.Config{
		N:                  *n,
		Queries:            *queries,
		Epochs:             *epochs,
		LearningRate:       *lr,
		BlockCapacity:      *block,
		PartitionThreshold: *thresh,
		Seed:               *seed,
		Dist:               kind,
	}

	run := func(e bench.Experiment) {
		fmt.Printf("== %s: %s\n", e.ID, e.Title)
		start := time.Now()
		e.Run(cfg, os.Stdout)
		fmt.Printf("\n   (%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			run(e)
		}
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "rsmi-bench: unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	run(e)
}
