package bench

// The planner experiment: the cost-based planner (plan.MultiEngine over
// the sharded RSMI plus every baseline) against each fixed backend on a
// per-workload-class grid. The claim under test is the planner's whole
// reason to exist: no fixed backend is best across the grid, and the
// planner should track the best fixed backend in every class (routing
// overhead stays small) while beating the worst by a wide margin —
// which a fixed choice cannot, because "worst" changes with the class.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"rsmi"
	"rsmi/internal/dataset"
	"rsmi/internal/loadgen"
	"rsmi/internal/plan"
	"rsmi/internal/server"
	"rsmi/internal/shard"
)

// plannerCell measures one workload class against one running server
// over binary HTTP at batch=32 (the PR 5 serving grid's batched cell).
// A warm-up pass (discarded) warms the HTTP client connections, and for
// the planner lets the EWMA corrections re-converge after the
// workload-class shift, so the measured pass reports steady-state
// routing rather than the transition. Fixed backends carry no state
// across classes, so they only warm up on their first visit.
func plannerCell(addr string, mix loadgen.Mix, windowFrac float64, k int, warm bool, dur time.Duration) loadgen.Report {
	cfg := loadgen.Config{
		Addr:       addr,
		Clients:    4,
		Duration:   dur,
		Mix:        mix,
		K:          k,
		BatchSize:  32,
		WindowFrac: windowFrac,
		Proto:      server.ProtoBinary,
	}
	if warm {
		warmCfg := cfg
		warmCfg.Duration = dur / 2
		loadgen.Run(warmCfg) // discarded
	}
	rep, _ := loadgen.Run(cfg)
	return rep
}

func init() {
	register(Experiment{
		ID:    "planner",
		Title: "Cost-based planner vs every fixed backend, per workload class",
		Run: func(cfg Config, w io.Writer) {
			cfg = cfg.Defaults()
			pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
			shardOpts := cfg.rsmiOptions()
			shardOpts.PartitionThreshold = 0 // auto per-shard threshold
			primary := shard.New(pts, shard.Options{Shards: cfg.Shards, Index: shardOpts})

			fixed := []struct {
				name string
				eng  rsmi.Engine
			}{
				{"Sharded RSMI", primary},
				{"R*-tree", rsmi.NewRStarEngine(pts, 0)},
				{"Grid File", rsmi.NewGridFileEngine(pts, 0)},
				{"K-D-B-tree", rsmi.NewKDBEngine(pts, 0)},
			}
			engines := make([]rsmi.Engine, len(fixed))
			for i := range fixed {
				engines[i] = fixed[i].eng
			}
			me, err := plan.NewMultiEngine(plan.NewStats(pts), engines...)
			if err != nil {
				fmt.Fprintf(w, "planner: %v\n", err)
				return
			}
			if err := me.Calibrate(context.Background()); err != nil {
				fmt.Fprintf(w, "planner: %v\n", err)
				return
			}

			// One server per competitor, reused across every class.
			type target struct {
				name string
				addr string
			}
			var targets []target
			for _, f := range fixed {
				addr, _, stop, err := startServing(f.eng, 1024)
				if err != nil {
					fmt.Fprintf(w, "planner: %v\n", err)
					return
				}
				defer stop()
				targets = append(targets, target{f.name, addr})
			}
			pAddr, _, pStop, err := startServing(me, 1024)
			if err != nil {
				fmt.Fprintf(w, "planner: %v\n", err)
				return
			}
			defer pStop()

			classes := []struct {
				name string
				mix  loadgen.Mix
				frac float64
				k    int
			}{
				{"point probes", loadgen.Mix{Point: 1}, 0, 0},
				{"window 1e-5", loadgen.Mix{Window: 1}, 1e-5, 0},
				{"window 1e-4", loadgen.Mix{Window: 1}, 1e-4, 0},
				{"window 1e-3", loadgen.Mix{Window: 1}, 1e-3, 0},
				{"window 1e-2", loadgen.Mix{Window: 1}, 1e-2, 0},
				{"kNN k=10", loadgen.Mix{KNN: 1}, 0, 10},
			}
			cell := cfg.cellDuration(500 * time.Millisecond)
			// Cells run in interleaved rounds and each (class, competitor)
			// reports its median round: throughput noise on a shared
			// machine is autocorrelated over seconds, so a single
			// sequential sweep hands whichever competitor ran in a quiet
			// period a phantom win, and a per-cell max would bias the
			// "best fixed backend" upward (it maxes over four competitors
			// × rounds draws while the planner gets rounds draws of its
			// own). The median is the same estimator for every cell.
			const rounds = 3
			fixedRuns := make([][][]float64, len(classes))
			plannerRuns := make([][]float64, len(classes))
			for i := range fixedRuns {
				fixedRuns[i] = make([][]float64, len(targets))
			}
			for round := 0; round < rounds; round++ {
				for ci, cl := range classes {
					for ti, t := range targets {
						rep := plannerCell(t.addr, cl.mix, cl.frac, cl.k, round == 0, cell)
						fixedRuns[ci][ti] = append(fixedRuns[ci][ti], rep.OpsPerSec/1e3)
					}
					rep := plannerCell(pAddr, cl.mix, cl.frac, cl.k, true, cell)
					plannerRuns[ci] = append(plannerRuns[ci], rep.OpsPerSec/1e3)
				}
			}
			median := func(xs []float64) float64 {
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				return sorted[len(sorted)/2]
			}
			fixedKops := make([][]float64, len(classes))
			plannerKops := make([]float64, len(classes))
			for ci := range classes {
				fixedKops[ci] = make([]float64, len(targets))
				for ti := range targets {
					fixedKops[ci][ti] = median(fixedRuns[ci][ti])
				}
				plannerKops[ci] = median(plannerRuns[ci])
			}

			header := []string{"workload class"}
			for _, t := range targets {
				header = append(header, t.name)
			}
			header = append(header, "Planner", "vs best", "vs worst")
			tb := newTable(fmt.Sprintf(
				"Planner vs fixed backends (kops/s, binary batch=32, c=4, %s n=%d, S=%d)",
				cfg.Dist, cfg.N, cfg.Shards), header...)
			for ci, cl := range classes {
				var cells []string
				for ti := range targets {
					cells = append(cells, fmt.Sprintf("%.1f", fixedKops[ci][ti]))
				}
				sorted := append([]float64(nil), fixedKops[ci]...)
				sort.Float64s(sorted)
				worst, best := sorted[0], sorted[len(sorted)-1]
				cells = append(cells,
					fmt.Sprintf("%.1f", plannerKops[ci]),
					fmt.Sprintf("%.2fx", plannerKops[ci]/best),
					fmt.Sprintf("%.2fx", plannerKops[ci]/worst))
				tb.add(append([]string{cl.name}, cells...)...)
			}
			tb.write(w)

			c := me.PlannerStats()
			type routedRow struct {
				name  string
				count int64
			}
			var rows []routedRow
			for name, n := range c.Routed {
				rows = append(rows, routedRow{name, n})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
			fmt.Fprintf(w, "\n  planner routing: %d planned, %d mispredicts in %d cost observations (%.1f%%)\n",
				c.Planned, c.Mispredicts, c.Observed,
				100*float64(c.Mispredicts)/float64(max64(c.Observed, 1)))
			for _, r := range rows {
				fmt.Fprintf(w, "    %-14s %d\n", r.name, r.count)
			}
			fmt.Fprintf(w, "  (\"vs best\"/\"vs worst\" = planner throughput relative to the best\n   and worst fixed backend of that class; every cell is the median of %d\n   interleaved rounds; the calibration probes run once at startup, so\n   the planner rows include routing overhead)\n", rounds)
		},
	})
}
