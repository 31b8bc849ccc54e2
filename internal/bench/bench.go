// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§6). Each experiment is registered under
// an id mirroring the paper artefact ("table3", "fig6", … "fig19",
// "deletions", "ablation-rank", "ablation-curve", plus the post-paper
// "sharded") and prints the same rows/series the paper reports: per-index
// query times, block accesses, recall, index sizes, construction times, and
// error bounds. Measured output is committed in EXPERIMENTS.md.
//
// Scale note: the paper runs 1M–128M points with 500-epoch training; the
// harness defaults to laptop-scale data with short training, keeping every
// sweep's *shape* (who wins, by what factor, where crossovers fall). The
// Config knobs restore paper-scale settings.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/gridfile"
	"rsmi/internal/hrr"
	"rsmi/internal/index"
	"rsmi/internal/kdb"
	"rsmi/internal/rstar"
	"rsmi/internal/zm"
)

// Config scales the experiments.
type Config struct {
	// N is the default data set cardinality (paper: 64M bold default;
	// harness default 20,000).
	N int
	// Queries per experiment (paper: 1000; harness default 200).
	Queries int
	// Epochs for learned-index training (paper: 500; harness default 30).
	Epochs int
	// LearningRate for learned-index training (default 0.1 at harness
	// scale; the paper's 0.01 suits its 500-epoch budget).
	LearningRate float64
	// BlockCapacity is B (default 100, as in the paper).
	BlockCapacity int
	// PartitionThreshold is RSMI's N parameter (default 10,000, as in the
	// paper).
	PartitionThreshold int
	// Seed drives all data generation and training.
	Seed int64
	// Dist is the default distribution (paper default: Skewed).
	Dist dataset.Kind
	// Shards is the maximum shard count the sharded-throughput experiment
	// sweeps to (default 8).
	Shards int
	// Goroutines is the maximum client goroutine count the
	// sharded-throughput experiment sweeps to (default 8).
	Goroutines int
}

// defaultQueries is the harness's default Queries.
const defaultQueries = 200

// Defaults fills zero fields with harness defaults.
func (c Config) Defaults() Config {
	if c.N == 0 {
		c.N = 20000
	}
	if c.Queries == 0 {
		c.Queries = defaultQueries
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.BlockCapacity == 0 {
		c.BlockCapacity = 100
	}
	if c.PartitionThreshold == 0 {
		c.PartitionThreshold = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Dist == 0 && c.N > 0 {
		c.Dist = dataset.Skewed
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Goroutines == 0 {
		c.Goroutines = 8
	}
	return c
}

// cellDuration is how long one load-generation cell of the serving
// experiments runs. Those cells are bounded by time, not by a query count, so
// they take their length from Queries too: atDefault at the harness default,
// proportionally shorter under a quick config and longer under -queries 1000.
func (c Config) cellDuration(atDefault time.Duration) time.Duration {
	return atDefault * time.Duration(c.Queries) / defaultQueries
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the registry key, e.g. "fig10".
	ID string
	// Title describes the paper artefact, e.g. "Fig. 10: window query vs
	// data distribution".
	Title string
	// Run executes the experiment and writes its tables to w.
	Run func(cfg Config, w io.Writer)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in registration order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// rsmiOptions derives RSMI options from the config.
func (c Config) rsmiOptions() core.Options {
	return core.Options{
		BlockCapacity:      c.BlockCapacity,
		PartitionThreshold: c.PartitionThreshold,
		LearningRate:       c.LearningRate,
		Epochs:             c.Epochs,
		Seed:               c.Seed,
	}
}

// zmOptions derives ZM options from the config.
func (c Config) zmOptions() zm.Options {
	return zm.Options{
		BlockCapacity: c.BlockCapacity,
		LearningRate:  c.LearningRate,
		Epochs:        c.Epochs,
		Seed:          c.Seed,
	}
}

// builders returns the competitor set of §6.1 in the paper's figure order.
func (c Config) builders() []struct {
	name  string
	build func(pts []geom.Point) index.Index
} {
	return []struct {
		name  string
		build func(pts []geom.Point) index.Index
	}{
		{"Grid", func(pts []geom.Point) index.Index { return gridfile.New(pts, c.BlockCapacity) }},
		{"HRR", func(pts []geom.Point) index.Index { return hrr.New(pts, c.BlockCapacity) }},
		{"KDB", func(pts []geom.Point) index.Index { return kdb.New(pts, c.BlockCapacity) }},
		{"RR*", func(pts []geom.Point) index.Index { return rstar.New(pts, c.BlockCapacity) }},
		{"RSMI", func(pts []geom.Point) index.Index { return core.New(pts, c.rsmiOptions()) }},
		{"ZM", func(pts []geom.Point) index.Index { return zm.New(pts, c.zmOptions()) }},
	}
}

// table accumulates aligned rows for printing.
type table struct {
	title  string
	header []string
	rows   [][]string
}

func newTable(title string, header ...string) *table {
	return &table{title: title, header: header}
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(label string, format string, vals ...float64) {
	row := []string{label}
	for _, v := range vals {
		row = append(row, fmt.Sprintf(format, v))
	}
	t.add(row...)
}

func (t *table) write(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", t.title)
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(w, "  %-*s", widths[i], c)
			} else {
				fmt.Fprintf(w, "  %*s", widths[i], c)
			}
		}
		fmt.Fprintln(w)
	}
	printRow(t.header)
	for _, r := range t.rows {
		printRow(r)
	}
}

// timeQueriesUS runs fn once per query and returns the average time in
// microseconds; an empty workload reports zero.
func timeQueriesUS(count int, fn func(i int)) float64 {
	if count <= 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < count; i++ {
		fn(i)
	}
	return float64(time.Since(start).Microseconds()) / float64(count)
}

// mb converts bytes to megabytes.
func mb(b int64) float64 { return float64(b) / (1024 * 1024) }
