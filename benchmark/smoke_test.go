package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func smoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	var report strings.Builder
	res, err := execute(context.Background(), config{workload: workload, seed: 1, seconds: 1, trace: trace, smoke: true, traceDir: t.TempDir()}, &report)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, report.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d checks failed\n%s", workload, res.Failed, res.Attempted, report.String())
	}
	return res
}

// TestSmoke runs every workload at the smoke scale, untraced and traced,
// with every correctness check on, and holds the metric names and units
// against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	mf := readManifest(t)
	want := func(list []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range list {
			out[m.Name] = m.Unit
		}
		return out
	}
	var workloads []string
	for _, w := range mf.Workloads {
		workloads = append(workloads, w.Name)
	}
	var have []string
	for _, sp := range specs {
		have = append(have, sp.name)
	}
	sort.Strings(workloads)
	sort.Strings(have)
	if strings.Join(workloads, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark has %v", workloads, have)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := smoke(t, w, trace)
			declared := want(mf.EndToEnd)
			if trace {
				declared = want(mf.PerLayer)
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, ",") != strings.Join(sortedKeys(declared), ",") {
				t.Errorf("%s trace=%v prints %v, BENCHMARK.json declares %v", w, trace, got, sortedKeys(declared))
			}
			for name, m := range res.Metrics {
				if m.Unit != declared[name] {
					t.Errorf("%s: %s is in %q, declared %q", w, name, m.Unit, declared[name])
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, name, m.Value)
				}
			}
		}
	}
}

// TestCountsRepeat: what is counted, not timed, must come out identical from
// two runs of the same seed.
func TestCountsRepeat(t *testing.T) {
	for _, w := range []string{"embed-read", "embed-write"} {
		a, b := smoke(t, w, false), smoke(t, w, false)
		for _, name := range []string{"window_recall", "knn_recall"} {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v, then %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
		if a.Attempted != b.Attempted {
			t.Errorf("%s: %d answers checked, then %d", w, a.Attempted, b.Attempted)
		}
	}
	a, b := smoke(t, "embed-read", true), smoke(t, "embed-read", true)
	for name := range a.Metrics {
		if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, "_blocks") && a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s = %v, then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := execute(context.Background(), config{workload: "nope", seconds: 1}, io.Discard); err == nil {
		t.Error("an unknown workload ran")
	}
}
