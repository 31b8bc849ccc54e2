package bench

import (
	"fmt"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

func inserts(ps []geom.Point) ops {
	return ops{n: len(ps), do: func(idx index.Index, i int) []geom.Point {
		idx.Insert(ps[i])
		return nil
	}}
}

func deletes(ps []geom.Point) ops {
	return ops{n: len(ps), do: func(idx index.Index, i int) []geom.Point {
		idx.Delete(ps[i])
		return nil
	}}
}

// updateStages is the x-axis of Figs. 17–19 and the deletion experiment: one
// build over pts, then a column per update fraction of Table 2 that applies
// the next even share of writes and runs the queries after returns for it.
func updateStages(pts, writes []geom.Point, apply func([]geom.Point) ops, after func(batch []geom.Point) ops) []column {
	batch := len(writes) / len(workload.UpdateFractions)
	var cols []column
	for stage, f := range workload.UpdateFractions {
		chunk := writes[stage*batch : (stage+1)*batch]
		cols = append(cols, column{
			label:  fmt.Sprintf("%.0f%%", f*100),
			pts:    pts,
			update: apply(chunk),
			query:  after(chunk),
		})
	}
	return cols
}

// insertStages inserts 50 % more points in successive 10 % batches; queries
// draws each stage's workload from all the points present after it.
func (c Config) insertStages(queries func(all []geom.Point) ops) []column {
	pts := dataset.Generate(c.Dist, c.N, c.Seed)
	all := append([]geom.Point(nil), pts...)
	return updateStages(pts, workload.InsertPoints(pts, c.N/2, c.Seed+4), inserts, func(batch []geom.Point) ops {
		all = append(all, batch...)
		return queries(all)
	})
}

// Figs. 17–19: insertion time, and point, window and kNN queries after
// insertions (§6.2.5).
func init() {
	registerSweep("fig17", "Fig. 17: Insertions and point queries after insertions", func(cfg Config) sweep {
		opts := cfg.rsmiOptions()
		opts.Seed += 7 // independent models from the plain RSMI instance
		return sweep{
			series: [2]series{
				updateUS.titled("Fig. 17a: insertion time (us), %s n=%d", cfg.Dist, cfg.N),
				queryUS.titled("Fig. 17b: point query time (us) after insertions"),
			},
			builders: append(cfg.builders(), builder{"RSMIr", func(pts []geom.Point) index.Index {
				return core.New(pts, opts).AsRebuilder()
			}}),
			cols: cfg.insertStages(func(all []geom.Point) ops { return cfg.pointQueries(all, 5) }),
		}
	})
	registerSweep("fig18", "Fig. 18: Window queries after insertions", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				queryMS.titled("Fig. 18a: window query time (ms) after insertions, %s n=%d", cfg.Dist, cfg.N),
				recall.titled("Fig. 18b: window query recall after insertions"),
			},
			cols: cfg.insertStages(func(all []geom.Point) ops {
				return windowQueries(workload.Windows(all, cfg.Queries/2, workload.DefaultWindowSize, workload.DefaultAspectRatio, cfg.Seed+6))
			}),
		}
	})
	registerSweep("fig19", "Fig. 19: kNN queries after insertions", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				queryMS.titled("Fig. 19a: kNN query time (ms) after insertions, k=%d", workload.DefaultK),
				recall.titled("Fig. 19b: kNN query recall after insertions"),
			},
			cols: cfg.insertStages(func(all []geom.Point) ops {
				return knnQueries(workload.KNNPoints(all, cfg.Queries/2, cfg.Seed+7), workload.DefaultK)
			}),
		}
	})
}

// Deletions: §6.2.5 notes deletions "replicate the performance figures of
// insertions"; this experiment verifies that claim at harness scale.
func init() {
	registerSweep("deletions", "Deletions: point query time after deletions (§6.2.5 text)", func(cfg Config) sweep {
		pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
		gone := make(map[geom.Point]struct{}, cfg.N/2)
		return sweep{
			series: [2]series{
				updateUS.titled("Deletion time (us), %s n=%d", cfg.Dist, cfg.N),
				queryUS.titled("Point query time (us) after deletions"),
			},
			cols: updateStages(pts, workload.DeleteSample(pts, cfg.N/2, cfg.Seed+8), deletes, func(batch []geom.Point) ops {
				for _, p := range batch {
					gone[p] = struct{}{}
				}
				var live []geom.Point
				for _, p := range pts {
					if _, g := gone[p]; !g {
						live = append(live, p)
					}
				}
				return cfg.pointQueries(live, 9)
			}),
		}
	})
}
