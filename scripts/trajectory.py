#!/usr/bin/env python3
"""Renders every BENCH_<pr>.json at the repo root as one markdown table: a row
per PR and workload, a column per ledger cell named on the command line (the
default set is the learned path's). A BENCH file holds the result objects that
`bash benchmark/run.sh --workload W --seed 1 --seconds 10 --trace 1` prints
last, one line per workload in BENCHMARK.json's order; timing cells are as
measured, so read them against the row's host.ref_ns. A malformed file (wrong
line count, a wrong answer, a missing per-layer metric) is an exception."""
import glob, json, os, re, sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
workloads = [w["name"] for w in spec["workloads"]]
required = [m["name"] for m in spec["per_layer"]]
cols = sys.argv[1:] or ["host.ref_ns"] + ["core.%s_%s" % (op, kind) for kind in ("ns", "blocks")
                        for op in ("point", "window", "knn")] + ["core.insert_ns", "core.err_blocks", "store.bytes_per_point"]
print("| PR | workload | " + " | ".join(cols) + " |")
print("|---|---|" + "---:|" * len(cols))
pr = lambda path: int(re.search(r"BENCH_(\d+)\.json$", path).group(1))
for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json")), key=pr):
    lines = [l for l in open(path).read().splitlines() if l.strip()]
    assert len(lines) == len(workloads), f"{path}: {len(lines)} result lines, want {len(workloads)}"
    for name, line in zip(workloads, lines):
        res = json.loads(line)
        assert res["correct"] and res["failed"] == 0, f"{path}: {name} answered wrongly"
        missing = [c for c in required + cols if c not in res["metrics"]]
        assert not missing, f"{path}: {name} lacks {missing}"
        print(f"| {pr(path)} | {name} | " + " | ".join(f"{res['metrics'][c]['value']:.5g}" for c in cols) + " |")
