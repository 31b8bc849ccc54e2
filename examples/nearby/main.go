// Nearby: the paper's "Dinner near me" scenario (Fig. 1b).
//
// A location-based app answers k-nearest-neighbour queries over restaurant
// locations. This example indexes a Tiger-like restaurant set and serves
// kNN queries with RSMI, which walks its node and block MBRs best-first
// from the query's own leaf cell, against an R*-tree's best-first search —
// Fig. 14, in miniature.
package main

import (
	"context"
	"fmt"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/index"
	"rsmi/internal/rstar"
	"rsmi/internal/workload"
)

func main() {
	const nRestaurants = 60000
	restaurants := dataset.Generate(dataset.TigerLike, nRestaurants, 7)
	fmt.Printf("indexing %d restaurants…\n", nRestaurants)

	learned := rsmi.New(restaurants, rsmi.Options{
		Epochs: 40, LearningRate: 0.1, Seed: 3,
	})
	rtree := rstar.New(restaurants, 100)
	oracle := index.NewLinear(restaurants)

	// One user, one query: show the actual answer (ctx-first v2 API; the
	// error is non-nil only on cancellation).
	ctx := context.Background()
	me := rsmi.Pt(0.37, 0.52)
	fmt.Printf("\nuser at %v asks for %d nearest restaurants:\n", me, 5)
	nearest, _ := learned.KNNContext(ctx, me, 5)
	for i, p := range nearest {
		fmt.Printf("  #%d  %v  (%.4f away)\n", i+1, p, me.Dist(p))
	}

	// A workload of users following the restaurant density, k = 25 (the
	// paper's default).
	users := workload.KNNPoints(restaurants, 1000, 11)
	const k = 25

	type result struct {
		name   string
		dur    time.Duration
		recall float64
	}
	var results []result
	for _, c := range []struct {
		name  string
		query func(q rsmi.Point, k int) []rsmi.Point
	}{
		{"RSMI (best-first)", func(q rsmi.Point, k int) []rsmi.Point {
			out, _ := learned.KNNContext(ctx, q, k)
			return out
		}},
		{"RR* (best-first)", rtree.KNN},
	} {
		start := time.Now()
		for _, u := range users {
			c.query(u, k)
		}
		dur := time.Since(start)
		var recall float64
		for _, u := range users {
			recall += index.KNNRecall(c.query(u, k), oracle.KNN(u, k), u)
		}
		results = append(results, result{c.name, dur, recall / float64(len(users))})
	}
	fmt.Printf("\n%-20s %14s %14s %8s\n", "index", "1000 queries", "per query", "recall")
	for _, r := range results {
		fmt.Printf("%-20s %14v %14v %7.1f%%\n",
			r.name, r.dur.Round(time.Microsecond),
			(r.dur / time.Duration(len(users))).Round(time.Nanosecond), 100*r.recall)
	}
	fmt.Println("\nThe learned index seeds its walk with the blocks of the query's own")
	fmt.Println("leaf cell, found by its cuts, so it queues nothing farther than the")
	fmt.Println("k-th restaurant those blocks already hold.")
}
