package bench

import (
	"fmt"
	"io"

	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// registerSweep registers a figure that is one sweep at the default config.
func registerSweep(id, title string, def func(cfg Config) sweep) {
	register(Experiment{ID: id, Title: title, Run: func(cfg Config, w io.Writer) {
		cfg = cfg.Defaults()
		s := def(cfg)
		if s.builders == nil {
			s.builders = cfg.builders()
		}
		s.run(w)
	}})
}

// The cell values the figures print, titled per figure with titled.
var (
	queryUS  = series{format: "%.2f", value: func(c cell) float64 { return c.queryUS }}
	queryMS  = series{format: "%.4f", value: func(c cell) float64 { return c.queryUS / 1000 }}
	updateUS = series{format: "%.2f", value: func(c cell) float64 { return c.updateUS }}
	accesses = series{format: "%.2f", value: func(c cell) float64 { return c.accesses }}
	recall   = series{format: "%.3f", value: func(c cell) float64 { return c.recall }}
	sizeMB   = series{format: "%.2f", value: func(c cell) float64 { return mb(c.stats.SizeBytes) }}
	buildS   = series{format: "%.3f", value: func(c cell) float64 { return c.stats.BuildTime.Seconds() }}
)

func (s series) titled(format string, args ...any) series {
	s.title = fmt.Sprintf(format, args...)
	return s
}

// The §6.1 query workloads, drawn from pts with the harness's fixed seeds.

func (c Config) pointQueries(pts []geom.Point, seed int64) ops {
	qs := workload.PointQueries(pts, c.Queries, c.Seed+seed)
	return ops{n: len(qs), do: func(idx index.Index, i int) []geom.Point {
		idx.PointQuery(qs[i])
		return nil
	}}
}

func windowQueries(ws []geom.Rect) ops {
	return ops{
		n:     len(ws),
		do:    func(idx index.Index, i int) []geom.Point { return idx.WindowQuery(ws[i]) },
		score: func(got, want []geom.Point, _ int) float64 { return index.Recall(got, want) },
	}
}

func knnQueries(qs []geom.Point, k int) ops {
	return ops{
		n:     len(qs),
		do:    func(idx index.Index, i int) []geom.Point { return idx.KNN(qs[i], k) },
		score: func(got, want []geom.Point, i int) float64 { return index.KNNRecall(got, want, qs[i]) },
	}
}

// defaultPoints, defaultWindows and defaultKNN are the bold-default workloads
// of Table 2 over pts; noQueries is for the figures that only read Stats.
func (c Config) defaultPoints(pts []geom.Point) ops { return c.pointQueries(pts, 1) }

func (c Config) defaultWindows(pts []geom.Point) ops {
	return windowQueries(workload.Windows(pts, c.Queries, workload.DefaultWindowSize, workload.DefaultAspectRatio, c.Seed+2))
}

func (c Config) defaultKNN(pts []geom.Point) ops {
	return knnQueries(workload.KNNPoints(pts, c.Queries, c.Seed+3), workload.DefaultK)
}

func noQueries([]geom.Point) ops { return ops{} }

// byDistribution is the x-axis of Figs. 6, 7, 10, 14: a column per data
// distribution at n = c.N.
func (c Config) byDistribution(queries func(pts []geom.Point) ops) []column {
	var cols []column
	for _, k := range dataset.All() {
		pts := dataset.Generate(k, c.N, c.Seed)
		cols = append(cols, column{label: k.String(), pts: pts, query: queries(pts)})
	}
	return cols
}

// bySize is the x-axis of Figs. 8, 9, 11, 15: the ×2 cardinality sweep
// anchored at c.N (the paper sweeps 1M..128M the same way).
func (c Config) bySize(queries func(pts []geom.Point) ops) []column {
	var cols []column
	for _, n := range []int{c.N / 8, c.N / 4, c.N / 2, c.N} {
		pts := dataset.Generate(c.Dist, n, c.Seed)
		cols = append(cols, column{label: fmt.Sprintf("n=%d", n), pts: pts, query: queries(pts)})
	}
	return cols
}

// Figs. 6–9: point queries, index size and construction time, vs data
// distribution and vs data set size.
func init() {
	registerSweep("fig6", "Fig. 6: Point query vs data distribution", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				queryUS.titled("Fig. 6a: point query response time (us), n=%d", cfg.N),
				accesses.titled("Fig. 6b: point query # block accesses, n=%d", cfg.N),
			},
			cols: cfg.byDistribution(cfg.defaultPoints),
		}
	})
	registerSweep("fig7", "Fig. 7: Index size and construction time vs data distribution", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				sizeMB.titled("Fig. 7a: index size (MB), n=%d", cfg.N),
				buildS.titled("Fig. 7b: construction time (s), n=%d", cfg.N),
			},
			cols: cfg.byDistribution(noQueries),
		}
	})
	registerSweep("fig8", "Fig. 8: Point query vs data set size", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				queryUS.titled("Fig. 8a: point query time (us), %s", cfg.Dist),
				accesses.titled("Fig. 8b: point query # block accesses"),
			},
			cols: cfg.bySize(cfg.defaultPoints),
		}
	})
	registerSweep("fig9", "Fig. 9: Index size and construction time vs data set size", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				sizeMB.titled("Fig. 9a: index size (MB), %s", cfg.Dist),
				buildS.titled("Fig. 9b: construction time (s)"),
			},
			cols: cfg.bySize(noQueries),
		}
	})
}

// Figs. 10–13: window queries vs distribution, size, window size, aspect.
func init() {
	registerSweep("fig10", "Fig. 10: Window query vs data distribution", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				queryMS.titled("Fig. 10a: window query time (ms), n=%d", cfg.N),
				recall.titled("Fig. 10b: window query recall"),
			},
			rsmia: true,
			cols:  cfg.byDistribution(cfg.defaultWindows),
		}
	})
	registerSweep("fig11", "Fig. 11: Window query vs data set size", func(cfg Config) sweep {
		return windowSweep("Fig. 11", cfg.bySize(cfg.defaultWindows))
	})
	registerSweep("fig12", "Fig. 12: Window query vs query window size", func(cfg Config) sweep {
		pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
		var cols []column
		for _, size := range workload.WindowSizes {
			ws := workload.Windows(pts, cfg.Queries, size, workload.DefaultAspectRatio, cfg.Seed+2)
			cols = append(cols, column{label: fmt.Sprintf("%.4f%%", size*100), pts: pts, query: windowQueries(ws)})
		}
		return windowSweep("Fig. 12", cols)
	})
	registerSweep("fig13", "Fig. 13: Window query vs query window aspect ratio", func(cfg Config) sweep {
		pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
		var cols []column
		for _, aspect := range workload.AspectRatios {
			ws := workload.Windows(pts, cfg.Queries, workload.DefaultWindowSize, aspect, cfg.Seed+2)
			cols = append(cols, column{label: fmt.Sprintf("%.2f", aspect), pts: pts, query: windowQueries(ws)})
		}
		return windowSweep("Fig. 13", cols)
	})
}

// windowSweep is the shape Figs. 11–13 share.
func windowSweep(figure string, cols []column) sweep {
	return sweep{
		series: [2]series{
			queryMS.titled(figure + "a: window query time (ms)"),
			recall.titled(figure + "b: window query recall"),
		},
		rsmia: true,
		cols:  cols,
	}
}

// Figs. 14–16: kNN queries vs distribution, size, and k.
func init() {
	registerSweep("fig14", "Fig. 14: kNN query vs data distribution", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				queryMS.titled("Fig. 14a: kNN query time (ms), k=%d, n=%d", workload.DefaultK, cfg.N),
				recall.titled("Fig. 14b: kNN query recall"),
			},
			rsmia: true,
			cols:  cfg.byDistribution(cfg.defaultKNN),
		}
	})
	registerSweep("fig15", "Fig. 15: kNN query vs data set size", func(cfg Config) sweep {
		return sweep{
			series: [2]series{
				queryMS.titled("Fig. 15a: kNN query time (ms), k=%d, %s", workload.DefaultK, cfg.Dist),
				recall.titled("Fig. 15b: kNN query recall"),
			},
			rsmia: true,
			cols:  cfg.bySize(cfg.defaultKNN),
		}
	})
	registerSweep("fig16", "Fig. 16: kNN query vs k", func(cfg Config) sweep {
		pts := dataset.Generate(cfg.Dist, cfg.N, cfg.Seed)
		qs := workload.KNNPoints(pts, cfg.Queries, cfg.Seed+3)
		var cols []column
		for _, k := range workload.Ks {
			cols = append(cols, column{label: fmt.Sprintf("k=%d", k), pts: pts, query: knnQueries(qs, k)})
		}
		return sweep{
			series: [2]series{
				queryMS.titled("Fig. 16a: kNN query time (ms), %s n=%d", cfg.Dist, cfg.N),
				recall.titled("Fig. 16b: kNN query recall"),
			},
			rsmia: true,
			cols:  cols,
		}
	})
}
