// Updates: dynamic data handling per §5 and §6.2.5.
//
// A delivery platform's courier positions churn constantly: new couriers
// appear (insertions), others go offline (deletions). This example stresses
// RSMI's update path — overflow-block chaining, error-bound preservation,
// flag-based deletion — and shows how the RSMIr periodic-rebuild policy
// restores query performance after heavy churn (Fig. 17, in miniature).
package main

import (
	"context"
	"fmt"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/workload"
)

func main() {
	const nCouriers = 40000
	base := dataset.Generate(dataset.Normal, nCouriers, 5)
	fmt.Printf("indexing %d courier positions…\n", nCouriers)

	plain := rsmi.New(base, rsmi.Options{})
	managed := rsmi.New(base, rsmi.Options{}).AsRebuilder()

	// 50% churn: half the fleet goes offline, an equal number comes online.
	offline := workload.DeleteSample(base, nCouriers/2, 8)
	online := workload.InsertPoints(base, nCouriers/2, 9)

	ctx := context.Background()
	pointQueryUS := func(idx interface {
		PointQueryContext(context.Context, rsmi.Point) (bool, error)
	}, probes []rsmi.Point) float64 {
		start := time.Now()
		for _, p := range probes {
			idx.PointQueryContext(ctx, p)
		}
		return float64(time.Since(start).Microseconds()) / float64(len(probes))
	}
	probes := workload.PointQueries(base, 2000, 10)

	fmt.Printf("\nbefore churn: point query %.2f µs (plain)\n", pointQueryUS(plain, probes))

	for name, idx := range map[string]interface {
		InsertContext(context.Context, rsmi.Point) error
		DeleteContext(context.Context, rsmi.Point) (bool, error)
		Len() int
	}{"plain RSMI": plain, "RSMIr (auto-rebuild)": managed} {
		start := time.Now()
		for i := range online {
			idx.DeleteContext(ctx, offline[i])
			idx.InsertContext(ctx, online[i])
		}
		fmt.Printf("%-22s churned %d updates in %v (n=%d)\n",
			name, len(online)*2, time.Since(start).Round(time.Millisecond), idx.Len())
	}

	live := append([]rsmi.Point{}, online...)
	for _, p := range base {
		live = append(live, p)
	}
	liveProbes := workload.PointQueries(online, 2000, 11)

	fmt.Printf("\nafter churn:\n")
	fmt.Printf("  plain RSMI   point query %.2f µs (overflow chains accumulate)\n",
		pointQueryUS(plain, liveProbes))
	fmt.Printf("  RSMIr        point query %.2f µs (rebuilt every 10%% inserts)\n",
		pointQueryUS(managed, liveProbes))

	// A manual rebuild brings the plain index back to packed layout — the
	// "periodic rebuild (e.g., overnight)" of §5.
	start := time.Now()
	plain.RebuildContext(ctx)
	fmt.Printf("\nmanual overnight rebuild of plain RSMI took %v\n",
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("  plain RSMI   point query %.2f µs after rebuild\n",
		pointQueryUS(plain, liveProbes))
	_ = live
}
