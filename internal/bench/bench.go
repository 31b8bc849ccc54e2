// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§6), and nothing else: performance is
// measured by the benchmark/ module, serving by rsmi-loadgen. Each experiment
// is registered under an id mirroring the paper artefact ("table3", "fig6", …
// "fig19", "deletions", "ablation-rank", "ablation-curve") and prints the
// same rows/series the paper reports: per-index query times, block accesses,
// recall, index sizes, construction times, and error bounds. Figs. 6–19 are
// declared as sweeps (columns × the §6.1 competitor set) and run by one
// runner, sweep.run. Measured output is committed in EXPERIMENTS.md.
//
// Scale note: the paper runs 1M–128M points with 500-epoch training; the
// harness defaults to laptop-scale data with short training, keeping every
// sweep's *shape* (who wins, by what factor, where crossovers fall). The
// Config knobs restore paper-scale settings.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
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
	// Dist is the distribution of the experiments that do not sweep it
	// (paper default: Skewed). Its zero value is Uniform, a distribution like
	// any other, so Defaults leaves it alone.
	Dist dataset.Kind
}

// Defaults fills zero fields, Dist excepted, with harness defaults.
func (c Config) Defaults() Config {
	if c.N == 0 {
		c.N = 20000
	}
	if c.Queries == 0 {
		c.Queries = 200
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
	return c
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

// builder constructs one competitor over a point set.
type builder struct {
	name  string
	build func(pts []geom.Point) index.Index
}

// builders returns the competitor set of §6.1 in the paper's figure order.
// RR* is built by insertion, the paper's §6.2.2 choice.
func (c Config) builders() []builder {
	return []builder{
		{"Grid", func(pts []geom.Point) index.Index { return gridfile.New(pts, c.BlockCapacity) }},
		{"HRR", func(pts []geom.Point) index.Index { return hrr.New(pts, c.BlockCapacity) }},
		{"KDB", func(pts []geom.Point) index.Index { return kdb.New(pts, c.BlockCapacity) }},
		{"RR*", func(pts []geom.Point) index.Index { return rstar.New(pts, c.BlockCapacity) }},
		{"RSMI", func(pts []geom.Point) index.Index { return core.New(pts, c.rsmiOptions()) }},
		{"ZM", func(pts []geom.Point) index.Index { return zm.New(pts, c.zmOptions()) }},
	}
}

// built is one constructed competitor.
type built struct {
	name string
	idx  index.Index
}

// buildSet constructs every builder's index over pts, in order.
func buildSet(builders []builder, pts []geom.Point) []built {
	var out []built
	for _, b := range builders {
		out = append(out, built{b.name, b.build(pts)})
	}
	return out
}

// ops is n operations against an index; do performs the i-th and returns
// its answer (nil for point queries and updates). Ops with a score are
// ones the learned indices answer approximately: the runner asks the
// brute-force oracle first and scores every index's answers against its.
type ops struct {
	n     int
	do    func(idx index.Index, i int) []geom.Point
	score func(got, want []geom.Point, i int) float64
}

// column is one x-axis value of a sweep.
type column struct {
	label string
	// pts is the data set the indices are built over. Consecutive columns
	// naming the same slice share one build: the later column runs on the
	// indices the earlier one left, updates included.
	pts []geom.Point
	// update is applied to every index (and the oracle) before query runs.
	update, query ops
}

// cell is what the runner measures for one index under one column.
type cell struct {
	updateUS float64     // mean time per update
	queryUS  float64     // mean time per query
	accesses float64     // mean block accesses per query
	recall   float64     // mean score against the oracle's answers
	stats    index.Stats // after the column's updates
}

// series is one table of a sweep: the cell value it shows and how.
type series struct {
	title, format string
	value         func(cell) float64
}

// sweep is one figure: two series over the same columns, a row per index.
type sweep struct {
	series   [2]series
	builders []builder
	cols     []column
}

// run builds the competitor set once per distinct point set, measures every
// index under every column, and writes the two tables.
func (s sweep) run(w io.Writer) {
	var (
		set    []built
		oracle *index.Linear
		cells  [][]cell // by column, then by position in set
	)
	for ci, c := range s.cols {
		if ci == 0 || !sameSlice(c.pts, s.cols[ci-1].pts) {
			set = buildSet(s.builders, c.pts)
			oracle = index.NewLinear(c.pts)
		}
		for i := 0; i < c.update.n; i++ {
			c.update.do(oracle, i)
		}
		var want [][]geom.Point
		if c.query.score != nil {
			want = askOracle(oracle, c.query)
		}
		col := make([]cell, len(set))
		for bi, b := range set {
			m := &col[bi]
			m.updateUS = timeQueriesUS(c.update.n, func(i int) { c.update.do(b.idx, i) })
			got := make([][]geom.Point, c.query.n)
			b.idx.ResetAccesses()
			m.queryUS = timeQueriesUS(c.query.n, func(i int) { got[i] = c.query.do(b.idx, i) })
			if c.query.n > 0 {
				m.accesses = float64(b.idx.Accesses()) / float64(c.query.n)
			}
			for i := range want {
				m.recall += c.query.score(got[i], want[i], i)
			}
			if len(want) > 0 {
				m.recall /= float64(len(want))
			}
			m.stats = b.idx.Stats()
		}
		cells = append(cells, col)
	}
	for _, sr := range s.series {
		tb := newTable(sr.title, "index")
		for _, c := range s.cols {
			tb.header = append(tb.header, c.label)
		}
		for bi, b := range set {
			vals := make([]float64, len(cells))
			for ci, col := range cells {
				vals[ci] = sr.value(col[bi])
			}
			tb.addf(b.name, sr.format, vals...)
		}
		tb.write(w)
	}
}

// askOracle returns the oracle's answer to every query of q. The oracle sorts
// all n points per kNN query — once the indices are built once, the largest
// cost left in Figs. 14–16 — and only reads, so the queries are spread over
// the CPUs.
func askOracle(oracle *index.Linear, q ops) [][]geom.Point {
	want := make([][]geom.Point, q.n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < q.n; i += workers {
				want[i] = q.do(oracle, i)
			}
		}()
	}
	wg.Wait()
	return want
}

// sameSlice reports whether a and b are the same slice, not merely equal.
func sameSlice(a, b []geom.Point) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
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
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(count)
}

// mb converts bytes to megabytes.
func mb(b int64) float64 { return float64(b) / (1024 * 1024) }
