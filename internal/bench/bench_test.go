package bench

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rsmi/internal/core"
	"rsmi/internal/dataset"
	"rsmi/internal/geom"
	"rsmi/internal/index"
	"rsmi/internal/workload"
)

// quickConfig shrinks everything so the full registry runs in CI time.
func quickConfig() Config {
	return Config{
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

// The registry is the paper's 19 artefacts and nothing else.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table3", "table4",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"deletions", "ablation-rank", "ablation-curve",
	}
	slices.Sort(want)
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("registry holds %v, want exactly %v", got, want)
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig6"); !ok {
		t.Error("Lookup(fig6) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown id succeeded")
	}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := Config{Dist: dataset.Skewed}.Defaults()
	if c.N == 0 || c.Queries == 0 || c.Epochs == 0 || c.BlockCapacity == 0 ||
		c.PartitionThreshold == 0 || c.Seed == 0 || c.LearningRate == 0 {
		t.Errorf("Defaults left zero fields: %+v", c)
	}
	// Explicit values survive — Dist's zero value, Uniform, included.
	c = Config{N: 42, Queries: 7, Dist: dataset.Uniform}.Defaults()
	if c.N != 42 || c.Queries != 7 || c.Dist != dataset.Uniform {
		t.Errorf("Defaults overwrote explicit values: %+v", c)
	}
}

// rsmi-bench -dist uniform used to run Skewed: Uniform is dataset.Kind(0) and
// Defaults took a zero Dist for unset.
func TestUniformDistIsHonoured(t *testing.T) {
	cfg := quickConfig()
	cfg.N, cfg.Dist = 800, dataset.Uniform
	var buf bytes.Buffer
	e, _ := Lookup("fig8")
	e.Run(cfg, &buf)
	if out := buf.String(); !strings.Contains(out, "Fig. 8a: point query time (us), Uniform") {
		t.Errorf("fig8 over Uniform data prints:\n%s", out)
	}
}

// Every registered experiment must run to completion at quick scale and
// print the tables the parent of the sweep runner printed: same titles,
// headers and row labels, and — in every row that is not a wall-clock time —
// the same cells (block accesses, recalls, heights, sizes, error bounds, gap
// statistics). testdata/quick_4d767bf.txt is the output of commit 4d767bf's
// rsmi-bench at quickConfig, experiment by experiment. This is the
// integration test of the whole repository: it builds every index on every
// relevant distribution and runs every query type.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("the experiments take ~6 s; skipped in -short")
	}
	raw, err := os.ReadFile("testdata/quick_4d767bf.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]parsedTable{}
	for _, chunk := range strings.Split(string(raw), "\n== ")[1:] {
		id, rest, _ := strings.Cut(chunk, ":")
		golden[id] = parseTables(rest[strings.Index(rest, "\n"):])
	}
	if len(golden) != len(All()) {
		t.Errorf("golden file holds %d experiments, registry %d", len(golden), len(All()))
	}
	cfg := quickConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(cfg, &buf)
			out := buf.String()
			for _, mustMention := range experimentMustMention(e.ID) {
				if !strings.Contains(out, mustMention) {
					t.Errorf("experiment %s output lacks %q:\n%s", e.ID, mustMention, out)
				}
			}
			got, want := parseTables(out), golden[e.ID]
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("%d tables, golden has %d:\n%s", len(got), len(want), out)
			}
			for i, tb := range got {
				if tb.title != want[i].title || len(tb.rows) != len(want[i].rows) {
					t.Fatalf("table %q with %d rows, golden %q with %d", tb.title, len(tb.rows), want[i].title, len(want[i].rows))
				}
				for j, row := range tb.rows {
					wrow := want[i].rows[j]
					timed := j > 0 && strings.Contains(strings.ToLower(tb.title+" "+wrow[0]), "time")
					if row[0] != wrow[0] || len(row) != len(wrow) || (!timed && !slices.Equal(row, wrow)) {
						t.Errorf("%q row %d = %v, golden %v", tb.title, j, row, wrow)
					}
				}
			}
		})
	}
}

// parsedTable is one printed table; rows[0] is the header.
type parsedTable struct {
	title string
	rows  [][]string
}

var cellGap = regexp.MustCompile(` {2,}`)

// parseTables reads tables back from experiment output (and from rsmi-bench's,
// whose "(id in 1.2s)" trailer it skips): a flush-left title, then rows
// indented by two spaces with cells at least two spaces apart.
func parseTables(out string) []parsedTable {
	var tables []parsedTable
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.TrimSpace(line) == "" || strings.HasPrefix(line, "   ("):
		case !strings.HasPrefix(line, "  "):
			tables = append(tables, parsedTable{title: line})
		default:
			tb := &tables[len(tables)-1]
			tb.rows = append(tb.rows, cellGap.Split(strings.TrimSpace(line), -1))
		}
	}
	return tables
}

// experimentMustMention returns strings whose presence sanity-checks the
// output shape of each experiment.
func experimentMustMention(id string) []string {
	switch id {
	case "table3":
		return []string{"Construction time", "Height", "Index size", "block accesses"}
	case "table4":
		return []string{"ZM", "RSMI", "Uniform", "OSM"}
	case "fig6", "fig8":
		return []string{"Grid", "HRR", "KDB", "RR*", "RSMI", "ZM", "block accesses"}
	case "fig7", "fig9":
		return []string{"index size", "construction time"}
	case "fig10", "fig11", "fig12", "fig13":
		return []string{"RSMIa", "recall"}
	case "fig14", "fig15", "fig16":
		return []string{"kNN", "recall", "RSMIa"}
	case "fig17":
		return []string{"insertion time", "RSMIr"}
	case "fig18", "fig19":
		return []string{"recall"}
	case "deletions":
		return []string{"Deletion time"}
	case "ablation-rank":
		return []string{"rank-space", "raw-grid", "gap relative variance"}
	case "ablation-curve":
		return []string{"hilbert", "z"}
	}
	return nil
}

// The runner builds the competitor set once per distinct point set — a
// fig12-shaped sweep once, a fig11-shaped one once per n — and never builds
// RSMIa: it is a view of the RSMI instance, so an update sweep must not apply
// its updates twice.
func TestSweepBuildsOncePerPointSet(t *testing.T) {
	opts := quickConfig().rsmiOptions()
	opts.Epochs = 1
	builds := map[string]int{}
	var rsmi *core.RSMI
	builders := []builder{
		{"Scan", func(pts []geom.Point) index.Index { builds["Scan"]++; return index.NewLinear(pts) }},
		{"RSMI", func(pts []geom.Point) index.Index { builds["RSMI"]++; rsmi = core.New(pts, opts); return rsmi }},
	}
	windows := func(pts []geom.Point, size float64) ops {
		return windowQueries(workload.Windows(pts, 4, size, 1, 2))
	}
	run := func(cols []column) []parsedTable {
		clear(builds)
		var buf bytes.Buffer
		sweep{series: [2]series{queryMS.titled("time"), recall.titled("recall")}, builders: builders, rsmia: true, cols: cols}.run(&buf)
		tables := parseTables(buf.String())
		if len(tables) != 2 || len(tables[1].rows) != 4 || len(tables[1].rows[0]) != 1+len(cols) {
			t.Fatalf("want 2 tables of header + Scan, RSMI, RSMIa by %d columns, got:\n%s", len(cols), buf.String())
		}
		return tables
	}

	pts := dataset.Generate(dataset.Skewed, 600, 1)
	var bySize, byN []column
	for _, size := range workload.WindowSizes {
		bySize = append(bySize, column{label: "w", pts: pts, query: windows(pts, size)})
	}
	for _, n := range []int{200, 400, 600} {
		sub := dataset.Generate(dataset.Skewed, n, 1)
		byN = append(byN, column{label: "n", pts: sub, query: windows(sub, workload.DefaultWindowSize)})
	}
	run(bySize)
	if builds["Scan"] != 1 || builds["RSMI"] != 1 {
		t.Errorf("five columns over one point set: builds = %v, want 1 each", builds)
	}
	run(byN)
	if builds["Scan"] != 3 || builds["RSMI"] != 3 {
		t.Errorf("three point sets: builds = %v, want 3 each", builds)
	}

	set := buildSet(builders, pts, true)
	if view, ok := set[2].idx.(core.Exact); !ok || set[2].name != "RSMIa" || view.RSMI != set[1].idx.(*core.RSMI) {
		t.Errorf("RSMIa is %T %q, want the exact view of the RSMI instance", set[2].idx, set[2].name)
	}
	ins := workload.InsertPoints(pts, 100, 4)
	all := append(append([]geom.Point(nil), pts...), ins...)
	tables := run(updateStages(pts, ins, inserts, func([]geom.Point) ops { return windows(all[:len(pts)], 0.01) }))
	if builds["RSMI"] != 1 || rsmi.Len() != len(all) {
		t.Errorf("update sweep: %d builds, RSMI holds %d points; want 1 build, %d points", builds["RSMI"], rsmi.Len(), len(all))
	}
	for _, row := range tables[1].rows[1:] {
		if row[0] != "RSMI" && !slices.Equal(row[1:], []string{"1.000", "1.000", "1.000", "1.000", "1.000"}) {
			t.Errorf("exact index %s recalls %v against the updated oracle", row[0], row[1:])
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tb := newTable("Title", "index", "a", "b")
	tb.add("row1", "1", "2")
	tb.addf("row2", "%.2f", 1.5, 2.25)
	var buf bytes.Buffer
	tb.write(&buf)
	out := buf.String()
	for _, want := range []string{"Title", "row1", "row2", "1.50", "2.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output lacks %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestMB(t *testing.T) {
	if got := mb(1024 * 1024); got != 1 {
		t.Errorf("mb(1MiB) = %v", got)
	}
}

func TestTimeQueriesUS(t *testing.T) {
	calls := 0
	us := timeQueriesUS(10, func(i int) { calls++ })
	if calls != 10 {
		t.Errorf("fn called %d times", calls)
	}
	if us < 0 {
		t.Errorf("negative time %v", us)
	}
	if us := timeQueriesUS(0, nil); us != 0 {
		t.Errorf("empty workload timed at %v", us)
	}
	// Sub-microsecond resolution: one no-op call takes tens of nanoseconds,
	// which whole microseconds reported as 0.
	for try := 0; try < 100; try++ {
		if us := timeQueriesUS(1, func(int) {}); us > 0 && us < 1 {
			return
		}
	}
	t.Error("100 timings of one no-op call: none strictly between 0 and 1 µs")
}
