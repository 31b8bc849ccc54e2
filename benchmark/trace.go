package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
)

// tracedRounds is how many rounds the traced run plays, with and without
// spans.
const tracedRounds = 3

// spanCapacity bounds the recorder: two spans per operation of the largest
// workload's three rounds, and room to spare. Spans beyond it are counted as
// dropped in the span file.
const spanCapacity = 400_000

// traced is the --trace 1 run: the layer ledger on the workload's data, then
// the workload itself twice at a shortened length — once plain, once with
// the benchmark's spans around every request and every engine call. It
// returns every per-layer metric of BENCHMARK.json and writes the span
// file.
func traced(ctx context.Context, cfg config, sp spec, tp *tapes, o runOpts, chk *checker, w io.Writer) (map[string]metric, error) {
	out, err := runLedger(ctx, tp, chk)
	if err != nil {
		return nil, fmt.Errorf("layer ledger: %w", err)
	}
	short := runOpts{takes: 1, minRounds: tracedRounds, warm: o.warm}
	plain, err := sp.run(ctx, tp, short, chk)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	short.tr = newTracer(spanCapacity)
	with, err := sp.run(ctx, tp, short, chk)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}

	ops := 0
	for _, r := range with.rounds {
		ops += r.ops
	}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	for c := class(0); c < numClasses; c++ {
		put("client."+classNames[c]+"_p99_us", with.rounds.p99us(c), "us")
	}
	put("client.samples", float64(with.rounds.samples()), "count")
	put("proc.cpu_us_per_op", with.proc.cpuUS/float64(max(ops, 1)), "us")
	put("proc.allocs_per_op", float64(with.proc.mallocs)/float64(max(ops, 1)), "count")
	put("proc.gc_cycles", float64(with.proc.gcCycles), "count")
	put("proc.heap_peak_mb", float64(with.proc.heapSys)/(1<<20), "MB")
	put("host.ref_ns", with.refNS, "ns")
	put("store.overflow_blocks", float64(with.overflowBlocks), "count")
	put("trace.overhead_frac", 1-with.opsPerSec()/plain.opsPerSec(), "ratio")

	spans := short.tr.rec.recorded()
	self := selfTimes(spans)
	var durs, selfs []float64
	byName := map[string][2]float64{} // total self ns, count
	for _, s := range spans {
		if s.Round < 0 {
			continue
		}
		acc := byName[s.Name]
		byName[s.Name] = [2]float64{acc[0] + float64(self[s.ID]), acc[1] + 1}
		if s.Name == "request.point" {
			durs, selfs = append(durs, float64(s.End-s.Start)), append(selfs, float64(self[s.ID]))
		}
	}
	// The share of a point request's time that no child span accounts for:
	// in-process, the benchmark's own loop around the engine call; over a
	// transport, everything outside the server's stage spans.
	put("acct.gap_frac", median(selfs)/max(median(durs), 1), "ratio")

	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", sp.name, cfg.seed))
	if err := short.tr.rec.write(path, map[string]any{"workload": sp.name, "seed": cfg.seed}); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(w, "%d spans (%d dropped) in %s; self time by span name:\n", len(spans), short.tr.rec.dropped.Load(), path)
	for _, name := range sortedKeys(byName) {
		acc := byName[name]
		fmt.Fprintf(w, "  %-22s %9.0f spans  %12.3f ms self  %10.3f us each\n", name, acc[1], acc[0]/1e6, acc[0]/acc[1]/1e3)
	}
	fmt.Fprintf(w, "ops/s: %.1f untraced, %.1f traced; every client.* cell is a median over %d rounds\n", plain.opsPerSec(), with.opsPerSec(), len(with.rounds))
	return out, nil
}
