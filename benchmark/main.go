// Command benchmark is the repository's benchmark: it builds a workload's
// data and index, drives a fixed operation tape in a closed loop, checks
// every answer, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer ledger). README.md describes the workloads, the metrics and the
// method.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	// traceDir receives the span file of a traced run.
	traceDir string
}

// takeSeconds is the timed region one measuring set-up gets. --seconds 10
// makes two after the one that checks: setup_s is the median of the three,
// and the timing cells pool rounds from two separately built engines, so
// one unlucky heap layout cannot colour a whole run.
const takeSeconds = 5

func main() {
	var cfg config
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "embed-read | embed-write | serve-stream | serve-json-batch")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation tapes")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed region")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics from a traced run and the layer ledger")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny data and two rounds: exercises every code path in seconds")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its span file")
	flag.Parse()
	cfg.trace = trace != 0
	res, err := execute(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one invocation, writing the readable report to w.
func execute(ctx context.Context, cfg config, w io.Writer) (*result, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: want at least 1", cfg.seconds)
	}
	sp = sp.sized(cfg.smoke)
	tp := buildTapes(sp.kind, sp.sz, cfg.seed)
	fmt.Fprintf(w, "workload %s seed %d: %d %v points, GOMAXPROCS %d, %d in flight × %d per request\n",
		sp.name, cfg.seed, sp.sz.n, sp.kind, runtime.GOMAXPROCS(0), sp.clients, sp.batch)
	hashes := tp.hashes()
	for _, name := range sortedKeys(hashes) {
		fmt.Fprintf(w, "tape %-8s %s\n", name, hashes[name])
	}

	chk := &checker{}
	o := runOpts{takes: max(1, cfg.seconds/takeSeconds), seconds: float64(cfg.seconds), minRounds: 4, warm: time.Second}
	if cfg.smoke {
		o = runOpts{takes: 1, minRounds: 2}
	}
	var metrics map[string]metric
	if cfg.trace {
		var err error
		if metrics, err = traced(ctx, cfg, sp, tp, o, chk, w); err != nil {
			return nil, err
		}
	} else {
		m, err := sp.run(ctx, tp, o, chk)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%d set-ups, %d rounds, %d latency samples\n", len(m.setups), len(m.rounds), m.rounds.samples())
		fmt.Fprintf(w, "reference look-up %.1f ns, nominal %.0f: every time below is the measured one ÷ %.4f\n", m.refNS, refNominalNS, m.slowdown())
		fmt.Fprintf(w, "as measured: set-up %.4f s, %.1f ops/s, p50 point %.3f window %.3f knn %.3f write %.3f us\n", median(m.setups), m.rounds.opsPerSec(),
			m.rounds.p50us(cPoint), m.rounds.p50us(cWindow), m.rounds.p50us(cKNN), m.rounds.p50us(cWrite))
		metrics = m.endToEnd()
	}

	for cl := range chk.attempted {
		fmt.Fprintf(w, "checked %-6s attempted %d failed %d\n", classNames[cl], chk.attempted[cl].Load(), chk.failed[cl].Load())
	}
	for _, msg := range chk.first {
		fmt.Fprintln(w, "FAILED", msg)
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(w, "%-40s %v %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	res := &result{Metrics: metrics}
	res.Attempted, res.Failed = chk.totals()
	res.Correct = res.Failed == 0
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// slowdown is how much slower than nominal the host ran the reference
// during the run's timed region.
func (m *measured) slowdown() float64 { return m.refNS / refNominalNS }

func (m *measured) opsPerSec() float64 { return m.rounds.opsPerSec() * m.slowdown() }

// endToEnd names the nine end-to-end metrics of BENCHMARK.json. The six
// timings are reported at the reference's nominal speed.
func (m *measured) endToEnd() map[string]metric {
	slow := m.slowdown()
	return map[string]metric{
		"setup_s":         {median(m.setups) / slow, "s"},
		"ops_per_s":       {m.opsPerSec(), "1/s"},
		"point_p50_us":    {m.rounds.p50us(cPoint) / slow, "us"},
		"window_p50_us":   {m.rounds.p50us(cWindow) / slow, "us"},
		"knn_p50_us":      {m.rounds.p50us(cKNN) / slow, "us"},
		"write_p50_us":    {m.rounds.p50us(cWrite) / slow, "us"},
		"window_recall":   {m.windowRecall, "ratio"},
		"knn_recall":      {m.knnRecall, "ratio"},
		"bytes_per_point": {m.bytesPerPoint, "B"},
	}
}
