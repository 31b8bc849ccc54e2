package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rsmi/internal/dataset"
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

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table3", "table4",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"deletions", "ablation-rank", "ablation-curve", "sharded", "serving",
		"hedged", "planner",
	}
	ids := IDs()
	got := make(map[string]bool, len(ids))
	for _, id := range ids {
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
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
	c := Config{}.Defaults()
	if c.N == 0 || c.Queries == 0 || c.Epochs == 0 || c.BlockCapacity == 0 ||
		c.PartitionThreshold == 0 || c.Seed == 0 || c.LearningRate == 0 {
		t.Errorf("Defaults left zero fields: %+v", c)
	}
	if c.Dist != dataset.Skewed {
		t.Errorf("default distribution = %v, want Skewed", c.Dist)
	}
	// Explicit values survive.
	c = Config{N: 42, Queries: 7}.Defaults()
	if c.N != 42 || c.Queries != 7 {
		t.Error("Defaults overwrote explicit values")
	}
}

// The timed load-generation cells scale with Queries: unchanged at the harness
// default, 30/200 of it under quickConfig.
func TestCellDurationScalesWithQueries(t *testing.T) {
	if got := (Config{}).Defaults().cellDuration(2 * time.Second); got != 2*time.Second {
		t.Errorf("default config: a 2 s cell lasts %v", got)
	}
	if got := quickConfig().cellDuration(2 * time.Second); got != 300*time.Millisecond {
		t.Errorf("quick config: a 2 s cell lasts %v, want 300ms", got)
	}
	if got := (Config{Queries: 1000}).cellDuration(400 * time.Millisecond); got != 2*time.Second {
		t.Errorf("Queries 1000: a 400 ms cell lasts %v, want 2s", got)
	}
}

// Every registered experiment must run to completion and produce plausible
// output at quick scale. This is the integration test of the whole
// repository: it builds every index on every relevant distribution and runs
// every query type.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take ~minutes; skipped in -short")
	}
	cfg := quickConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(cfg, &buf)
			out := buf.String()
			if len(out) < 50 {
				t.Fatalf("experiment %s produced almost no output: %q", e.ID, out)
			}
			for _, mustMention := range experimentMustMention(e.ID) {
				if !strings.Contains(out, mustMention) {
					t.Errorf("experiment %s output lacks %q:\n%s", e.ID, mustMention, out)
				}
			}
		})
	}
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
	case "sharded":
		return []string{"RWMutex", "Sharded S=", "kqps", "workers="}
	case "serving":
		return []string{"per-request", "client batch", "shed rate", "p99", "tcp stream"}
	case "planner":
		return []string{"Planner", "vs best", "vs worst", "planner routing", "mispredicts"}
	}
	return nil
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
}
