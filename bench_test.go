// Benchmarks reproducing every table and figure of the paper's evaluation
// (§6) at quick scale, one testing.B target per artefact, plus
// micro-benchmarks of the core index operations. Run:
//
//	go test -bench=. -benchmem
//
// Paper-scale runs use the CLI instead: go run ./cmd/rsmi-bench -exp all
// -n 200000 -epochs 500.
package rsmi_test

import (
	"io"
	"testing"

	"rsmi"
	"rsmi/internal/bench"
	"rsmi/internal/dataset"
	"rsmi/internal/workload"
)

// quickCfg keeps each experiment's bench iteration under a second while
// preserving the sweep structure.
func quickCfg() bench.Config {
	return bench.Config{
		N:                  2400,
		Queries:            30,
		Epochs:             10,
		LearningRate:       0.1,
		BlockCapacity:      50,
		PartitionThreshold: 1200,
		Seed:               1,
		Dist:               dataset.Skewed,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(quickCfg(), io.Discard)
	}
}

// One benchmark per paper artefact (the experiment ids of internal/bench).

func BenchmarkTable3PartitionThreshold(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4ErrorBounds(b *testing.B)         { benchExperiment(b, "table4") }
func BenchmarkFig6PointByDistribution(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7BuildByDistribution(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8PointBySize(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9BuildBySize(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10WindowByDistribution(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11WindowBySize(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12WindowBySelectivity(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13WindowByAspect(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14KNNByDistribution(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15KNNBySize(b *testing.B)            { benchExperiment(b, "fig15") }
func BenchmarkFig16KNNByK(b *testing.B)               { benchExperiment(b, "fig16") }
func BenchmarkFig17Insertions(b *testing.B)           { benchExperiment(b, "fig17") }
func BenchmarkFig18WindowAfterInsertions(b *testing.B) {
	benchExperiment(b, "fig18")
}
func BenchmarkFig19KNNAfterInsertions(b *testing.B) { benchExperiment(b, "fig19") }
func BenchmarkDeletions(b *testing.B)               { benchExperiment(b, "deletions") }
func BenchmarkAblationRankSpace(b *testing.B)       { benchExperiment(b, "ablation-rank") }
func BenchmarkAblationCurve(b *testing.B)           { benchExperiment(b, "ablation-curve") }

// Micro-benchmarks of the public API's core operations.

func buildBenchIndex(b *testing.B, n int) (*rsmi.Index, []rsmi.Point) {
	b.Helper()
	pts := dataset.Generate(dataset.Skewed, n, 1)
	idx := rsmi.New(pts, rsmi.Options{
		BlockCapacity:      100,
		PartitionThreshold: 2000,
		Epochs:             15,
		LearningRate:       0.1,
		Seed:               1,
	})
	return idx, pts
}

func BenchmarkRSMIBuild(b *testing.B) {
	pts := dataset.Generate(dataset.Skewed, 5000, 1)
	opts := rsmi.Options{
		BlockCapacity: 100, PartitionThreshold: 2000,
		Epochs: 15, LearningRate: 0.1, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rsmi.New(pts, opts)
	}
}

func BenchmarkRSMIPointQuery(b *testing.B) {
	idx, pts := buildBenchIndex(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.PointQuery(pts[i%len(pts)])
	}
}

func BenchmarkRSMIWindowQuery(b *testing.B) {
	idx, pts := buildBenchIndex(b, 10000)
	ws := workload.Windows(pts, 256, workload.DefaultWindowSize, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.WindowQuery(ws[i%len(ws)])
	}
}

func BenchmarkRSMIKNN(b *testing.B) {
	idx, pts := buildBenchIndex(b, 10000)
	qs := workload.KNNPoints(pts, 256, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.KNN(qs[i%len(qs)], workload.DefaultK)
	}
}

func BenchmarkRSMIExactWindowQuery(b *testing.B) {
	idx, pts := buildBenchIndex(b, 10000)
	exact := idx.AsExact()
	ws := workload.Windows(pts, 256, workload.DefaultWindowSize, 1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.WindowQuery(ws[i%len(ws)])
	}
}

func BenchmarkRSMIInsert(b *testing.B) {
	idx, pts := buildBenchIndex(b, 10000)
	ins := workload.InsertPoints(pts, 100000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Insert(ins[i%len(ins)])
	}
}
