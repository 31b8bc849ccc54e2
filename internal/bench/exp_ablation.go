package bench

import (
	"fmt"
	"io"
	"sort"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/rank"
	"rsmi/internal/sfc"
	"rsmi/internal/workload"
)

// Ablation A1: rank-space leaf ordering (§3.1) vs raw-grid curve ordering
// (the ZM ordering [46]). The paper's central design claim is that the rank
// space yields more even curve-value gaps, a simpler CDF, and tighter error
// bounds; this experiment quantifies it inside the same RSMI structure.
func init() {
	register(Experiment{
		ID:    "ablation-rank",
		Title: "Ablation A1: rank-space vs raw-grid leaf ordering (§3.1 claim)",
		Run: func(cfg Config, w io.Writer) {
			cfg = cfg.Defaults()
			tb := newTable(fmt.Sprintf("Ablation A1 on %s n=%d", cfg.Dist, cfg.N),
				"metric", "rank-space", "raw-grid")
			pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
			queries := workload.PointQueries(pts, cfg.Queries, cfg.Seed+1)

			rankOpts := cfg.rsmiOptions()
			rawOpts := rankOpts
			rawOpts.RawGridLeafOrder = true

			results := make([]struct {
				errL, errA  int
				blocks, us  float64
				gapVariance float64
			}, 2)
			for i, opts := range []core.Options{rankOpts, rawOpts} {
				idx := core.New(pts, opts)
				results[i].errL, results[i].errA = idx.ErrorBounds()
				idx.ResetAccesses()
				results[i].us = timeQueriesUS(len(queries), func(j int) { idx.PointQuery(queries[j]) })
				results[i].blocks = float64(idx.Accesses()) / float64(len(queries))
			}
			// Gap statistics over the full data set under each ordering
			// (the Fig. 2 vs Fig. 3 comparison, quantified).
			rs := rank.Transform(pts, sfc.Hilbert)
			cvs := make([]uint64, len(rs))
			for i, r := range rs {
				cvs[i] = r.CV
			}
			sortUint64(cvs)
			rankGaps := rank.Gaps(cvs)
			curve := sfc.New(sfc.Hilbert, sfc.OrderFor(len(pts)))
			side := float64(curve.Side() - 1)
			raw := make([]uint64, len(pts))
			for i, p := range pts {
				raw[i] = curve.Value(uint32(p.X*side), uint32(p.Y*side))
			}
			sortUint64(raw)
			rawGaps := rank.Gaps(raw)

			tb.add("err_l (blocks)", fmt.Sprint(results[0].errL), fmt.Sprint(results[1].errL))
			tb.add("err_a (blocks)", fmt.Sprint(results[0].errA), fmt.Sprint(results[1].errA))
			tb.add("point query blocks", fmt.Sprintf("%.2f", results[0].blocks), fmt.Sprintf("%.2f", results[1].blocks))
			tb.add("point query time (us)", fmt.Sprintf("%.2f", results[0].us), fmt.Sprintf("%.2f", results[1].us))
			// Gap evenness is compared scale-free (CV² = variance/mean²):
			// the two orderings live on different curve-value ranges, so
			// absolute variances are incommensurable (cf. Figs. 2 vs 3).
			rankCV := rankGaps.Variance / (rankGaps.Mean * rankGaps.Mean)
			rawCV := rawGaps.Variance / (rawGaps.Mean * rawGaps.Mean)
			tb.add("gap relative variance", fmt.Sprintf("%.2f", rankCV), fmt.Sprintf("%.2f", rawCV))
			tb.add("gap max/mean", fmt.Sprintf("%.1f", rankGaps.Max/rankGaps.Mean),
				fmt.Sprintf("%.1f", rawGaps.Max/rawGaps.Mean))
			tb.write(w)
		},
	})
}

// Ablation A2: Hilbert vs Z curve inside RSMI (§6.1: "RSMI uses
// Hilbert-curves for ordering as these yield better query performance than
// Z-curves").
func init() {
	register(Experiment{
		ID:    "ablation-curve",
		Title: "Ablation A2: Hilbert vs Z curve inside RSMI (§6.1 choice)",
		Run: func(cfg Config, w io.Writer) {
			cfg = cfg.Defaults()
			pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
			queries := workload.PointQueries(pts, cfg.Queries, cfg.Seed+1)
			windows := workload.Windows(pts, cfg.Queries, workload.DefaultWindowSize, workload.DefaultAspectRatio, cfg.Seed+2)

			tb := newTable(fmt.Sprintf("Ablation A2 on %s n=%d", cfg.Dist, cfg.N),
				"metric", "hilbert", "z")
			oracle := index.NewLinear(pts)
			truth := make([][]geom.Point, len(windows))
			for i, q := range windows {
				truth[i] = oracle.WindowQuery(q)
			}
			type res struct{ pointUS, windowMS, recall float64 }
			var results []res
			for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.Z} {
				opts := cfg.rsmiOptions()
				opts.Curve = kind
				idx := core.New(pts, opts)
				pUS := timeQueriesUS(len(queries), func(i int) { idx.PointQuery(queries[i]) })
				wUS := timeQueriesUS(len(windows), func(i int) { idx.WindowQuery(windows[i]) })
				var rec float64
				for i, q := range windows {
					rec += index.Recall(idx.WindowQuery(q), truth[i])
				}
				results = append(results, res{pUS, wUS / 1000, rec / float64(len(windows))})
			}
			tb.add("point query time (us)",
				fmt.Sprintf("%.2f", results[0].pointUS), fmt.Sprintf("%.2f", results[1].pointUS))
			tb.add("window query time (ms)",
				fmt.Sprintf("%.4f", results[0].windowMS), fmt.Sprintf("%.4f", results[1].windowMS))
			tb.add("window recall",
				fmt.Sprintf("%.3f", results[0].recall), fmt.Sprintf("%.3f", results[1].recall))
			tb.write(w)
		},
	})
}

// sortUint64 sorts a uint64 slice ascending.
func sortUint64(v []uint64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}
